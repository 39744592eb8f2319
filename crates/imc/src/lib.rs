//! # invnorm-imc
//!
//! In-memory-computing (IMC) substrate: a crossbar model and the NVM
//! non-ideality (fault) models the paper evaluates its method against.
//!
//! The paper abstracts circuit-level behaviour into an algorithmic fault
//! model (Sec. IV-A2): manufacturing/thermal conductance variation becomes
//! additive and multiplicative Gaussian noise, and programming/retention
//! faults become random bit flips of the quantized parameters. This crate
//! implements exactly that abstraction plus the deployment path around it:
//!
//! * [`fault`] — the [`fault::FaultModel`] catalogue (additive /
//!   multiplicative conductance variation, uniform noise, bit flips on
//!   quantized or binary weights, stuck-at faults, retention drift, and the
//!   structured topologies: whole stuck crossbar lines and per-tile
//!   correlated drift), plus [`fault::FaultSpec`] pairing a model with a
//!   [`fault::FaultLifetime`] (static per chip instance vs. re-drawn per
//!   inference).
//! * [`injector`] — [`injector::WeightFaultInjector`]: applies a fault model
//!   to every weight of a network (with save/restore so Monte-Carlo runs are
//!   independent); [`injector::CodeFaultInjector`]: the code-domain variant
//!   that perturbs the **i8 quantization codes** of integer-inference
//!   networks directly (via `Layer::visit_codes`), so faults land on the
//!   representation the hardware programs; and
//!   [`injector::ActivationNoise`], a layer that perturbs pre-activation
//!   values (the injection point the paper uses for binary networks, where
//!   weights have no analog magnitude to perturb).
//! * [`montecarlo`] — the Monte-Carlo fault-simulation engine that evaluates
//!   a metric over `N` simulated chip instances and reports mean ± std, the
//!   protocol behind every robustness figure in the paper
//!   ([`montecarlo::Sweep`] requests carry the fault domain — f32 weights or
//!   i8 codes; [`montecarlo::MonteCarloEngine::execute`] picks the fastest
//!   engine that supports the configuration and degrades gracefully down
//!   the engine ladder with typed reasons).
//! * [`crossbar`] — a differential-pair crossbar model with DAC/ADC
//!   quantization and conductance variation, demonstrating the full
//!   weight-programming / analog-MVM path (`program_codes` programs a tile
//!   straight from quantized integer codes).
//! * [`supervise`] — hardened-sweep supervision: [`supervise::RunBudget`]
//!   deadlines and cooperative [`supervise::CancelToken`]s, panic / non-finite
//!   quarantine with typed [`supervise::QuarantinedRun`] diagnostics, and
//!   bit-identical checkpoint/resume via [`supervise::SweepCheckpoint`] —
//!   honored by every engine body.
//!
//! # Example: perturb a network and measure the damage
//!
//! ```
//! use invnorm_imc::fault::FaultModel;
//! use invnorm_imc::injector::WeightFaultInjector;
//! use invnorm_nn::layer::{Layer, Mode};
//! use invnorm_nn::linear::Linear;
//! use invnorm_nn::Sequential;
//! use invnorm_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), invnorm_nn::NnError> {
//! let mut rng = Rng::seed_from(0);
//! let mut net = Sequential::new();
//! net.push(Box::new(Linear::new(8, 4, &mut rng)));
//! let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng);
//! let clean = net.forward(&x, Mode::Eval)?;
//!
//! let mut injector = WeightFaultInjector::new(FaultModel::AdditiveVariation { sigma: 0.3 })?;
//! injector.inject(&mut net, &mut Rng::seed_from(1))?;
//! let faulty = net.forward(&x, Mode::Eval)?;
//! injector.restore(&mut net)?;
//! let restored = net.forward(&x, Mode::Eval)?;
//!
//! assert!(!clean.approx_eq(&faulty, 1e-6));
//! assert!(clean.approx_eq(&restored, 1e-6));
//! # Ok(())
//! # }
//! ```

// This crate must stay free of `unsafe`; all unsafe code in the
// workspace is confined to `crates/tensor` (lint rule R2).
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crossbar;
pub mod fault;
pub mod injector;
pub mod montecarlo;
pub mod supervise;

pub use crossbar::TileShape;
pub use fault::{FaultLifetime, FaultModel, FaultSpec, LineOrientation};
pub use injector::{ActivationNoise, CodeFaultInjector, NoiseHandle, WeightFaultInjector};
pub use invnorm_tensor::telemetry;
pub use montecarlo::{
    DegradationPolicy, EngineKind, FallbackReason, FallbackStep, LadderOutcome, MonteCarloEngine,
    MonteCarloSummary, SupervisedLadderOutcome, Sweep,
};
pub use supervise::{
    CancelToken, InterruptCause, QuarantineCause, QuarantinedRun, RunBudget, SweepCheckpoint,
    SweepControl, SweepDomain, SweepOutcome,
};

/// Convenience result alias re-using the NN error type.
pub type Result<T> = std::result::Result<T, invnorm_nn::NnError>;

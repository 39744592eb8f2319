//! Error type shared by all layer, loss and optimizer code.

use invnorm_tensor::TensorError;
use std::fmt;

/// Error returned by neural-network operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor-level operation failed (shape mismatch, bad axis, ...).
    Tensor(TensorError),
    /// A layer was configured with inconsistent hyper-parameters.
    Config(String),
    /// `backward` was called before `forward` (no cached activations).
    BackwardBeforeForward(&'static str),
    /// The loss received targets that do not match the predictions.
    TargetMismatch {
        /// Number of predictions.
        predictions: usize,
        /// Number of targets.
        targets: usize,
    },
    /// A layer was asked to perform an operation it does not implement
    /// (compiled plans, backward on an inference-only layer, ...). Replaces
    /// the scattered ad-hoc `Config` messages so every "unsupported" failure
    /// names the layer and the operation uniformly.
    Unsupported {
        /// Human-readable layer name (from [`crate::Layer::name`]).
        layer: &'static str,
        /// The unsupported operation, e.g. `"compiled plans"`.
        op: &'static str,
    },
    /// An execution engine cannot honor the requested fault configuration
    /// (e.g. a per-inference fault lifetime on a path that realizes faults
    /// once per run). Typed so graceful-degradation policies can distinguish
    /// a capability gap — fall down the engine ladder — from a genuine
    /// failure that must propagate.
    FaultUnsupported {
        /// The engine (or engine entry point) that rejected the
        /// configuration.
        engine: &'static str,
        /// What about the fault configuration is unsupported.
        reason: String,
    },
    /// A serialized checkpoint (model parameters or Monte-Carlo sweep state)
    /// failed validation before any of its payload was trusted. Typed so
    /// callers can distinguish a stale format (re-export), a corrupted blob
    /// (discard) and a mismatched target (caller bug) without string
    /// matching.
    Checkpoint(CheckpointFault),
    /// An activation handed to a compiled plan does not match the shape the
    /// plan was compiled for. Typed (rather than a formatted `Config`
    /// string) so the Monte-Carlo engines and callers can distinguish a
    /// recompile-needed situation from genuine misconfiguration.
    ShapeMismatch {
        /// Where the mismatch was detected (layer or plan entry point).
        context: &'static str,
        /// The dims the plan was compiled for.
        expected: Vec<usize>,
        /// The dims the caller provided.
        got: Vec<usize>,
    },
}

/// Why a serialized checkpoint was rejected (see [`NnError::Checkpoint`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointFault {
    /// The buffer ends before the declared content does.
    Truncated {
        /// Bytes needed to finish the read in progress.
        needed: usize,
        /// Bytes actually available from the read position.
        available: usize,
    },
    /// The buffer does not start with the expected format magic — it is not
    /// a checkpoint of this kind at all.
    BadMagic,
    /// The checkpoint was written by a different (incompatible) format
    /// version.
    VersionSkew {
        /// The version this build reads and writes.
        expected: u32,
        /// The version found in the buffer.
        got: u32,
    },
    /// The payload checksum does not match the header — the bytes were
    /// corrupted in storage or transit.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as received.
        got: u64,
    },
    /// The payload parsed but is internally inconsistent, or does not match
    /// the target it is being applied to (wrong engine, seed, shape, ...).
    Mismatch {
        /// Which field disagreed.
        field: &'static str,
        /// The value the target expects.
        expected: String,
        /// The value the checkpoint carries.
        got: String,
    },
}

impl fmt::Display for CheckpointFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointFault::Truncated { needed, available } => write!(
                f,
                "truncated: needed {needed} more bytes but only {available} remain"
            ),
            CheckpointFault::BadMagic => f.write_str("bad magic: not a checkpoint of this format"),
            CheckpointFault::VersionSkew { expected, got } => {
                write!(
                    f,
                    "version skew: this build reads v{expected}, found v{got}"
                )
            }
            CheckpointFault::ChecksumMismatch { expected, got } => write!(
                f,
                "checksum mismatch: header says {expected:#018x}, payload hashes to {got:#018x}"
            ),
            CheckpointFault::Mismatch {
                field,
                expected,
                got,
            } => write!(f, "{field} mismatch: expected {expected}, found {got}"),
        }
    }
}

impl NnError {
    /// Convenience constructor for [`NnError::Unsupported`].
    pub fn unsupported(layer: &'static str, op: &'static str) -> Self {
        NnError::Unsupported { layer, op }
    }

    /// Convenience constructor for [`NnError::FaultUnsupported`].
    pub fn fault_unsupported(engine: &'static str, reason: impl Into<String>) -> Self {
        NnError::FaultUnsupported {
            engine,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`NnError::ShapeMismatch`].
    pub fn shape_mismatch(context: &'static str, expected: &[usize], got: &[usize]) -> Self {
        NnError::ShapeMismatch {
            context,
            expected: expected.to_vec(),
            got: got.to_vec(),
        }
    }
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::Config(msg) => write!(f, "invalid layer configuration: {msg}"),
            NnError::BackwardBeforeForward(layer) => {
                write!(f, "backward called before forward on layer {layer}")
            }
            NnError::TargetMismatch {
                predictions,
                targets,
            } => write!(
                f,
                "loss received {predictions} predictions but {targets} targets"
            ),
            NnError::Unsupported { layer, op } => {
                write!(f, "layer {layer} does not support {op}")
            }
            NnError::FaultUnsupported { engine, reason } => {
                write!(f, "{engine} does not support {reason}")
            }
            NnError::Checkpoint(fault) => write!(f, "invalid checkpoint: {fault}"),
            NnError::ShapeMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "{context}: plan compiled for shape {expected:?}, got {got:?}"
            ),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_and_display() {
        let te = TensorError::InvalidArgument("x".into());
        let ne: NnError = te.into();
        assert!(ne.to_string().contains("tensor error"));
        assert!(NnError::Config("bad".into()).to_string().contains("bad"));
        assert!(NnError::BackwardBeforeForward("Linear")
            .to_string()
            .contains("Linear"));
        let e = NnError::unsupported("Lstm", "compiled plans");
        assert_eq!(e.to_string(), "layer Lstm does not support compiled plans");
        let e = NnError::fault_unsupported("the parallel engine", "per-inference fault lifetime");
        assert_eq!(
            e.to_string(),
            "the parallel engine does not support per-inference fault lifetime"
        );
    }

    #[test]
    fn checkpoint_fault_display() {
        let cases: [(CheckpointFault, &str); 5] = [
            (
                CheckpointFault::Truncated {
                    needed: 8,
                    available: 3,
                },
                "needed 8 more bytes",
            ),
            (CheckpointFault::BadMagic, "bad magic"),
            (
                CheckpointFault::VersionSkew {
                    expected: 1,
                    got: 9,
                },
                "reads v1, found v9",
            ),
            (
                CheckpointFault::ChecksumMismatch {
                    expected: 1,
                    got: 2,
                },
                "checksum mismatch",
            ),
            (
                CheckpointFault::Mismatch {
                    field: "seed",
                    expected: "1".into(),
                    got: "2".into(),
                },
                "seed mismatch",
            ),
        ];
        for (fault, needle) in cases {
            let msg = NnError::Checkpoint(fault).to_string();
            assert!(msg.starts_with("invalid checkpoint:"), "{msg}");
            assert!(msg.contains(needle), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}

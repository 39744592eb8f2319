//! Saving and restoring network parameters ("checkpoints").
//!
//! Networks in this workspace are trees of trait objects, so checkpoints are
//! stored positionally: [`save`] walks the parameters in `visit_params`
//! order and records each tensor's shape and data; [`load`] walks the same
//! order and copies the values back. A checkpoint is therefore valid for any
//! network with an architecturally identical parameter sequence — the same
//! property the experiment harness relies on when it rebuilds a model from a
//! factory on another thread.

use crate::error::{CheckpointFault, NnError};
use crate::layer::Layer;
use crate::Result;
use invnorm_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Format magic prefixed to every serialized [`Checkpoint`].
const MAGIC: [u8; 4] = *b"INCK";
/// Current serialization format version. Bump on any layout change; readers
/// reject other versions with [`CheckpointFault::VersionSkew`].
const VERSION: u32 = 1;

/// FNV-1a 64-bit hash, used as the content checksum of serialized
/// checkpoints (both the model checkpoints here and the Monte-Carlo sweep
/// checkpoints in `invnorm-imc`). Not cryptographic — it detects storage and
/// transit corruption, not tampering.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Splits `bytes` into the integrity header and payload, verifying magic,
/// version and checksum. Shared by [`Checkpoint::from_bytes`] and the sweep
/// checkpoints in `invnorm-imc`.
///
/// # Errors
///
/// Returns a typed [`NnError::Checkpoint`] on truncation, wrong magic,
/// version skew or checksum mismatch.
pub fn verify_frame(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<&[u8]> {
    const HEADER: usize = 4 + 4 + 8;
    if bytes.len() < HEADER {
        return Err(NnError::Checkpoint(CheckpointFault::Truncated {
            needed: HEADER - bytes.len(),
            available: 0,
        }));
    }
    if bytes[..4] != magic {
        return Err(NnError::Checkpoint(CheckpointFault::BadMagic));
    }
    let got_version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if got_version != version {
        return Err(NnError::Checkpoint(CheckpointFault::VersionSkew {
            expected: version,
            got: got_version,
        }));
    }
    let expected = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let payload = &bytes[HEADER..];
    let got = fnv1a64(payload);
    if got != expected {
        return Err(NnError::Checkpoint(CheckpointFault::ChecksumMismatch {
            expected,
            got,
        }));
    }
    Ok(payload)
}

/// Prepends the integrity header (magic, version, FNV-1a checksum) to a
/// serialized payload. The inverse of [`verify_frame`].
pub fn frame(payload: Vec<u8>, magic: [u8; 4], version: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A serializable snapshot of every learnable parameter of a network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    entries: Vec<CheckpointEntry>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointEntry {
    dims: Vec<usize>,
    data: Vec<f32>,
}

impl Checkpoint {
    /// Number of parameter tensors in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot contains no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar values stored.
    pub fn scalar_count(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }

    /// Serializes the checkpoint to a compact little-endian byte buffer:
    /// an integrity header (`INCK` magic, format version, FNV-1a payload
    /// checksum) followed by the payload (entry count, then per entry the
    /// rank, dims and f32 data).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for entry in &self.entries {
            out.extend_from_slice(&(entry.dims.len() as u64).to_le_bytes());
            for &d in &entry.dims {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            out.extend_from_slice(&(entry.data.len() as u64).to_le_bytes());
            for &v in &entry.data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        frame(out, MAGIC, VERSION)
    }

    /// Parses a checkpoint previously produced by [`Checkpoint::to_bytes`],
    /// verifying the integrity header before trusting any of the payload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`NnError::Checkpoint`] when the buffer is truncated,
    /// carries the wrong magic or format version, fails its checksum, or is
    /// internally inconsistent.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let payload = verify_frame(bytes, MAGIC, VERSION)?;
        let mut cursor = 0usize;
        let truncated = |cursor: usize, needed: usize| {
            NnError::Checkpoint(CheckpointFault::Truncated {
                needed,
                available: payload.len().saturating_sub(cursor),
            })
        };
        let read_u64 = |cursor: &mut usize| -> Result<u64> {
            let end = *cursor + 8;
            let slice = payload.get(*cursor..end).ok_or(truncated(*cursor, 8))?;
            *cursor = end;
            Ok(u64::from_le_bytes(slice.try_into().expect("8-byte slice")))
        };
        let entry_count = read_u64(&mut cursor)? as usize;
        let mut entries = Vec::with_capacity(entry_count.min(1024));
        for _ in 0..entry_count {
            let rank = read_u64(&mut cursor)? as usize;
            let mut dims = Vec::with_capacity(rank.min(16));
            for _ in 0..rank {
                dims.push(read_u64(&mut cursor)? as usize);
            }
            let len = read_u64(&mut cursor)? as usize;
            let expected = dims
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .ok_or_else(|| {
                    NnError::Checkpoint(CheckpointFault::Mismatch {
                        field: "entry shape",
                        expected: "an element count that fits in usize".into(),
                        got: format!("{dims:?}"),
                    })
                })?;
            if expected != len {
                return Err(NnError::Checkpoint(CheckpointFault::Mismatch {
                    field: "entry length",
                    expected: format!("{expected} (shape {dims:?})"),
                    got: len.to_string(),
                }));
            }
            // The declared length must fit in the bytes left before it is
            // trusted with an allocation.
            let needed = len.saturating_mul(4);
            if needed > payload.len() - cursor {
                return Err(truncated(cursor, needed));
            }
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                let end = cursor + 4;
                let slice = payload.get(cursor..end).ok_or(truncated(cursor, 4))?;
                cursor = end;
                data.push(f32::from_le_bytes(slice.try_into().expect("4-byte slice")));
            }
            entries.push(CheckpointEntry { dims, data });
        }
        if cursor != payload.len() {
            return Err(NnError::Checkpoint(CheckpointFault::Mismatch {
                field: "payload length",
                expected: cursor.to_string(),
                got: payload.len().to_string(),
            }));
        }
        Ok(Self { entries })
    }

    /// Writes the checkpoint to a file.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn save_file(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, self.to_bytes())
            .map_err(|e| NnError::Config(format!("failed to write checkpoint: {e}")))
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be read or parsed.
    pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| NnError::Config(format!("failed to read checkpoint: {e}")))?;
        Self::from_bytes(&bytes)
    }
}

/// Captures the current parameter values of a network.
pub fn save(network: &mut dyn Layer) -> Checkpoint {
    let mut entries = Vec::new();
    network.visit_params(&mut |p| {
        entries.push(CheckpointEntry {
            dims: p.value.dims().to_vec(),
            data: p.value.data().to_vec(),
        });
    });
    Checkpoint { entries }
}

/// Restores parameter values from a checkpoint into a network with an
/// identical parameter sequence.
///
/// # Errors
///
/// Returns an error when the parameter count or any tensor shape differs.
pub fn load(network: &mut dyn Layer, checkpoint: &Checkpoint) -> Result<()> {
    let mut index = 0usize;
    let mut failure: Option<NnError> = None;
    network.visit_params(&mut |p| {
        if failure.is_some() {
            return;
        }
        match checkpoint.entries.get(index) {
            Some(entry) if entry.dims == p.value.dims() => {
                match Tensor::from_vec(entry.data.clone(), &entry.dims) {
                    Ok(value) => p.value = value,
                    Err(e) => failure = Some(e.into()),
                }
            }
            Some(entry) => {
                failure = Some(NnError::Config(format!(
                    "checkpoint entry {index} has shape {:?} but the network expects {:?}",
                    entry.dims,
                    p.value.dims()
                )));
            }
            None => {
                failure = Some(NnError::Config(format!(
                    "checkpoint has {} entries but the network has more parameters",
                    checkpoint.entries.len()
                )));
            }
        }
        index += 1;
    });
    if let Some(e) = failure {
        return Err(e);
    }
    if index != checkpoint.entries.len() {
        return Err(NnError::Config(format!(
            "checkpoint has {} entries but the network consumed only {index}",
            checkpoint.entries.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::layer::Mode;
    use crate::linear::Linear;
    use crate::norm::BatchNorm;
    use crate::Sequential;
    use invnorm_tensor::Rng;

    fn network(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from(seed);
        Sequential::new()
            .with(Box::new(Linear::new(6, 12, &mut rng)))
            .with(Box::new(BatchNorm::new(12)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(12, 3, &mut rng)))
    }

    #[test]
    fn save_load_round_trip_restores_outputs() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);
        let mut original = network(10);
        let reference = original.forward(&x, Mode::Eval).unwrap();
        let checkpoint = save(&mut original);
        assert!(!checkpoint.is_empty());
        assert_eq!(checkpoint.scalar_count(), original.param_count());

        // A differently initialized network produces different outputs ...
        let mut other = network(99);
        assert!(!other
            .forward(&x, Mode::Eval)
            .unwrap()
            .approx_eq(&reference, 1e-6));
        // ... until the checkpoint is loaded.
        load(&mut other, &checkpoint).unwrap();
        assert!(other
            .forward(&x, Mode::Eval)
            .unwrap()
            .approx_eq(&reference, 1e-6));
    }

    #[test]
    fn byte_round_trip_preserves_checkpoint() {
        let mut net = network(3);
        let checkpoint = save(&mut net);
        let bytes = checkpoint.to_bytes();
        let parsed = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.len(), checkpoint.len());
    }

    #[test]
    fn corrupted_buffers_are_rejected() {
        let mut net = network(4);
        let bytes = save(&mut net).to_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0, 1, 2, 3]);
        assert!(Checkpoint::from_bytes(&extended).is_err());
        assert!(Checkpoint::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn bit_flips_anywhere_in_the_payload_are_detected() {
        use crate::error::CheckpointFault;
        let mut net = network(8);
        let bytes = save(&mut net).to_bytes();
        // Flip one bit in several payload positions (past the 16-byte
        // header); every one must be caught by the content checksum.
        for pos in [16, 24, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            match Checkpoint::from_bytes(&corrupt) {
                Err(NnError::Checkpoint(CheckpointFault::ChecksumMismatch { .. })) => {}
                other => panic!("bit flip at {pos} not caught by checksum: {other:?}"),
            }
        }
        // A flipped checksum byte itself is also a mismatch.
        let mut corrupt = bytes.clone();
        corrupt[8] ^= 0x01;
        assert!(matches!(
            Checkpoint::from_bytes(&corrupt),
            Err(NnError::Checkpoint(
                CheckpointFault::ChecksumMismatch { .. }
            ))
        ));
    }

    #[test]
    fn truncation_magic_and_version_skew_are_typed() {
        use crate::error::CheckpointFault;
        let mut net = network(9);
        let bytes = save(&mut net).to_bytes();
        // Header-level truncation.
        assert!(matches!(
            Checkpoint::from_bytes(&bytes[..10]),
            Err(NnError::Checkpoint(CheckpointFault::Truncated { .. }))
        ));
        // Payload-level truncation: checksum recomputed over the shorter
        // payload cannot match the header.
        assert!(matches!(
            Checkpoint::from_bytes(&bytes[..bytes.len() - 5]),
            Err(NnError::Checkpoint(
                CheckpointFault::ChecksumMismatch { .. }
            ))
        ));
        // Wrong magic.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&wrong_magic),
            Err(NnError::Checkpoint(CheckpointFault::BadMagic))
        ));
        // Future format version.
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&7u32.to_le_bytes());
        match Checkpoint::from_bytes(&future) {
            Err(NnError::Checkpoint(CheckpointFault::VersionSkew { expected, got })) => {
                assert_eq!(expected, 1);
                assert_eq!(got, 7);
            }
            other => panic!("version skew not detected: {other:?}"),
        }
    }

    /// Frames a hand-built one-entry payload declaring `dims` and `len`,
    /// with no data behind the declaration.
    fn crafted_entry(dims: &[u64], len: u64) -> Vec<u8> {
        let mut p = 1u64.to_le_bytes().to_vec();
        p.extend_from_slice(&(dims.len() as u64).to_le_bytes());
        for d in dims {
            p.extend_from_slice(&d.to_le_bytes());
        }
        p.extend_from_slice(&len.to_le_bytes());
        frame(p, MAGIC, VERSION)
    }

    #[test]
    fn overflowing_shape_is_a_typed_mismatch() {
        use crate::error::CheckpointFault;
        let bytes = crafted_entry(&[1 << 32, 1 << 32], 0);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(NnError::Checkpoint(CheckpointFault::Mismatch {
                field: "entry shape",
                ..
            }))
        ));
    }

    #[test]
    fn oversized_declared_length_is_truncated_before_allocating() {
        use crate::error::CheckpointFault;
        let bytes = crafted_entry(&[1 << 40], 1 << 40);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(NnError::Checkpoint(CheckpointFault::Truncated { .. }))
        ));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let mut net = network(5);
        let checkpoint = save(&mut net);
        // Network with a different hidden width cannot accept the checkpoint.
        let mut rng = Rng::seed_from(6);
        let mut wrong = Sequential::new()
            .with(Box::new(Linear::new(6, 8, &mut rng)))
            .with(Box::new(Linear::new(8, 3, &mut rng)));
        assert!(load(&mut wrong, &checkpoint).is_err());
        // Network with fewer parameters is also rejected.
        let mut smaller = Sequential::new().with(Box::new(Linear::new(6, 12, &mut rng)));
        assert!(load(&mut smaller, &checkpoint).is_err());
    }

    #[test]
    fn file_round_trip() {
        let mut net = network(7);
        let checkpoint = save(&mut net);
        let path = std::env::temp_dir().join("invnorm_checkpoint_test.bin");
        checkpoint.save_file(&path).unwrap();
        let loaded = Checkpoint::load_file(&path).unwrap();
        assert_eq!(loaded, checkpoint);
        let _ = std::fs::remove_file(&path);
        assert!(Checkpoint::load_file("/nonexistent/invnorm.bin").is_err());
    }
}

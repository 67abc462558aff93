//! Reader/writer for the embedding-store artifact, the one codec of that
//! format: `EmbeddingStore::to_bytes` / `from_bytes` (crates/lookalike)
//! delegate here, and the `nearest` RPC and the `fvae ann` harness read the
//! same files as flat slices.
//!
//! Layout: `[header][dim u64][n u64]` then `n` entries of
//! `(user u64, dim × f32)` in strictly increasing user order.

use fvae_sparse::serial::{put_header, DecodeError, Put, Reader, MAGIC, VERSION};

/// A decoded embedding file: ascending unique user ids and their vectors in
/// one row-major buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddingFile {
    /// Embedding dimensionality (positive).
    pub dim: usize,
    /// User ids, strictly increasing.
    pub ids: Vec<u64>,
    /// Row-major vectors, `ids.len() * dim` floats, in id order.
    pub data: Vec<f32>,
}

/// Serializes embeddings. Panics if the invariants of [`EmbeddingFile`] are
/// violated (this is a programmer error on the write path, not hostile
/// input).
pub fn write_embeddings(dim: usize, ids: &[u64], data: &[f32]) -> Box<[u8]> {
    assert!(dim > 0, "embedding dim must be positive");
    assert_eq!(data.len(), ids.len() * dim, "data length is not ids x dim");
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly increasing");
    let mut buf = Vec::with_capacity(22 + ids.len() * (8 + dim * 4));
    put_header(&mut buf);
    buf.put_u64(dim as u64);
    buf.put_u64(ids.len() as u64);
    for (&user, row) in ids.iter().zip(data.chunks_exact(dim)) {
        buf.put_u64(user);
        for &v in row {
            buf.put_f32(v);
        }
    }
    buf.into_boxed_slice()
}

/// Parses an embedding file, enforcing the writer's invariants: positive
/// dim, strictly increasing user ids, exact entry count. No allocation is
/// sized by unchecked input.
pub fn read_embeddings(bytes: impl AsRef<[u8]>) -> Result<EmbeddingFile, DecodeError> {
    let mut r = Reader::new(bytes.as_ref());
    r.header(MAGIC, VERSION)?;
    let dim = r.u64()? as usize;
    if dim == 0 {
        return Err(DecodeError::Invalid("zero embedding dim".into()));
    }
    let row_bytes = dim.checked_mul(4).and_then(|b| b.checked_add(8));
    let n = r.count(row_bytes.ok_or(DecodeError::Truncated)?)?;
    let mut ids = Vec::with_capacity(n);
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let user = r.u64()?;
        if ids.last().is_some_and(|&prev| user <= prev) {
            return Err(DecodeError::Invalid(format!("user ids not strictly increasing at {user}")));
        }
        ids.push(user);
        data.extend(r.f32s(dim)?);
    }
    r.finish()?;
    Ok(EmbeddingFile { dim, ids, data })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let bytes = write_embeddings(2, &[3, 9], &[1.0, 2.0, 3.0, 4.0]);
        let file = read_embeddings(bytes).expect("decode");
        assert_eq!(file.dim, 2);
        assert_eq!(file.ids, vec![3, 9]);
        assert_eq!(file.data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_dim_rejected_before_entries() {
        let mut buf = Vec::new();
        put_header(&mut buf);
        buf.put_u64(0);
        buf.put_u64(0);
        assert!(matches!(read_embeddings(buf), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn unsorted_and_duplicate_ids_rejected() {
        let mut sorted = Vec::new();
        put_header(&mut sorted);
        sorted.put_u64(1);
        sorted.put_u64(2);
        for user in [7u64, 7] {
            sorted.put_u64(user);
            sorted.put_f32(0.0);
        }
        assert!(matches!(read_embeddings(sorted), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn truncation_and_oversized_count_rejected() {
        let bytes = write_embeddings(4, &[1, 2], &[0.5; 8]);
        assert!(matches!(
            read_embeddings(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        ));
        let mut hostile = Vec::new();
        put_header(&mut hostile);
        hostile.put_u64(4);
        hostile.put_u64(u64::MAX); // count far beyond the buffer
        assert!(matches!(read_embeddings(hostile), Err(DecodeError::Truncated)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = write_embeddings(1, &[5], &[1.0]).to_vec();
        bytes.push(9);
        assert!(matches!(read_embeddings(&bytes[..]), Err(DecodeError::Invalid(_))));
    }
}

//! The workspace's one binary codec: a bounded slice [`Reader`] that every
//! decoder of external bytes reads through, and the [`Put`] appends writers
//! use on a plain `Vec<u8>`.
//!
//! Artifacts written with this module's helpers share one header:
//!
//! ```text
//! [magic u32][version u16][payload...]
//! ```
//!
//! Payload encoders exist for `Vec<f32>`, `Vec<u64>`, strings, and
//! [`CsrMatrix`]. All integers are little-endian.

use crate::csr::CsrMatrix;

/// Magic bytes prefixed to every serialized artifact ("FVAE").
pub const MAGIC: u32 = 0x4656_4145;
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors produced when decoding.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the declared payload.
    Truncated,
    /// The magic prefix did not match.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u16),
    /// A structural invariant failed (e.g. CSR validation).
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad magic prefix"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// 256-entry lookup table for the reflected CRC-32/IEEE polynomial
/// (0xEDB88320), built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, the zlib/PNG variant) of `data`.
///
/// Used to checksum on-disk artifacts; the approved dependency list has no
/// checksum crate, so the classic reflected table-driven form lives here.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Bounded little-endian reader over a byte slice: the one decoder
/// primitive behind every binary format in the workspace.
///
/// Every read checks the remaining length first and fails with
/// [`DecodeError::Truncated`] instead of panicking. Element counts read from
/// the input go through [`Reader::count`] / [`Reader::fits`] before anything
/// is allocated from them, so a hostile count costs an error, never an
/// attacker-sized allocation.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self.buf.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f32`.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads an `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Checks that `n` items of at least `min_item_bytes` each can still
    /// fit in the input, and returns `n`. Call it before any allocation
    /// sized by a count that came from the input.
    #[inline]
    pub fn fits(&self, n: usize, min_item_bytes: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(min_item_bytes) {
            Some(total) if total <= self.remaining() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// Reads a `u64` element count and [`Reader::fits`]-checks it.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let n = usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)?;
        self.fits(n, min_item_bytes)
    }

    fn words<const N: usize, T>(
        &mut self,
        n: usize,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        let len = n.checked_mul(N).ok_or(DecodeError::Truncated)?;
        Ok(self
            .bytes(len)?
            .chunks_exact(N)
            .map(|c| from(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    /// Reads `n` `f32`s.
    #[inline]
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        self.words(n, f32::from_le_bytes)
    }

    /// Reads `n` `u32`s.
    #[inline]
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, DecodeError> {
        self.words(n, u32::from_le_bytes)
    }

    /// Reads `n` `u64`s.
    #[inline]
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, DecodeError> {
        self.words(n, u64::from_le_bytes)
    }

    /// Reads a vector written by [`put_f32_slice`].
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.count(4)?;
        self.f32s(n)
    }

    /// Reads a vector written by [`put_u64_slice`].
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, DecodeError> {
        let n = self.count(8)?;
        self.u64s(n)
    }

    /// Reads a string written by [`put_string`].
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.count(1)?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| DecodeError::Invalid(e.to_string()))
    }

    /// Reads a `[magic u32][version u16]` header and checks both.
    pub fn header(&mut self, magic: u32, version: u16) -> Result<(), DecodeError> {
        if self.u32()? != magic {
            return Err(DecodeError::BadMagic);
        }
        match self.u16()? {
            v if v == version => Ok(()),
            v => Err(DecodeError::BadVersion(v)),
        }
    }

    /// Ends decoding: bytes left over mean the input was not what the
    /// decoder thinks it was.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Invalid(format!("{n} trailing bytes"))),
        }
    }
}

/// Little-endian appends onto a plain byte vector: the write side of
/// [`Reader`].
pub trait Put {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends an `f32`.
    fn put_f32(&mut self, v: f32);
    /// Appends an `f64`.
    fn put_f64(&mut self, v: f64);
}

impl Put for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_f32(&mut self, v: f32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Writes the artifact header.
pub fn put_header(buf: &mut Vec<u8>) {
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION);
}

/// Writes a length-prefixed `f32` slice.
pub fn put_f32_slice(buf: &mut Vec<u8>, data: &[f32]) {
    buf.put_u64(data.len() as u64);
    buf.reserve(data.len() * 4);
    for &v in data {
        buf.put_f32(v);
    }
}

/// Writes a length-prefixed `u64` slice.
pub fn put_u64_slice(buf: &mut Vec<u8>, data: &[u64]) {
    buf.put_u64(data.len() as u64);
    buf.reserve(data.len() * 8);
    for &v in data {
        buf.put_u64(v);
    }
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.put_u64(s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Serializes a CSR matrix (header + payload) into a standalone buffer.
pub fn encode_csr(m: &CsrMatrix) -> Box<[u8]> {
    let (_, indptr, indices, _) = m.raw_parts();
    let mut buf = Vec::with_capacity(6 + 32 + indptr.len() * 8 + indices.len() * 8);
    put_header(&mut buf);
    encode_csr_payload(&mut buf, m);
    buf.into_boxed_slice()
}

/// Appends a CSR matrix payload (no header) to an existing buffer; the
/// composite-artifact counterpart of [`encode_csr`].
pub fn encode_csr_payload(buf: &mut Vec<u8>, m: &CsrMatrix) {
    let (n_cols, indptr, indices, values) = m.raw_parts();
    buf.put_u64(n_cols as u64);
    buf.put_u64(indptr.len() as u64);
    for &p in indptr {
        buf.put_u64(p as u64);
    }
    buf.put_u64(indices.len() as u64);
    for &ix in indices {
        buf.put_u32(ix);
    }
    put_f32_slice(buf, values);
}

/// Deserializes a CSR matrix written by [`encode_csr`].
pub fn decode_csr(buf: impl AsRef<[u8]>) -> Result<CsrMatrix, DecodeError> {
    let mut r = Reader::new(buf.as_ref());
    r.header(MAGIC, VERSION)?;
    let m = decode_csr_payload(&mut r)?;
    r.finish()?;
    Ok(m)
}

/// Reads a CSR payload written by [`encode_csr_payload`].
pub fn decode_csr_payload(r: &mut Reader<'_>) -> Result<CsrMatrix, DecodeError> {
    let n_cols = r.u64()? as usize;
    let indptr_len = r.count(8)?;
    let indptr = r.u64s(indptr_len)?.into_iter().map(|p| p as usize).collect();
    let nnz = r.count(4)?;
    let indices = r.u32s(nnz)?;
    let values = r.f32_vec()?;
    CsrMatrix::from_raw_parts_checked(n_cols, indptr, indices, values).map_err(DecodeError::Invalid)
}

impl CsrMatrix {
    /// Fallible variant of [`CsrMatrix::from_raw_parts`] for decoding paths.
    pub fn from_raw_parts_checked(
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, String> {
        let m = Self::from_raw_parts_unchecked(n_cols, indptr, indices, values);
        m.validate()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    fn sample() -> CsrMatrix {
        let mut b = CsrBuilder::new(10);
        b.push_row(&[1, 5, 9], &[1.0, 0.5, 2.0]);
        b.push_row(&[], &[]);
        b.push_row(&[0], &[3.0]);
        b.build()
    }

    #[test]
    fn csr_roundtrip() {
        let m = sample();
        let bytes = encode_csr(&m);
        let back = decode_csr(bytes).expect("decode");
        assert_eq!(back, m);
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let bytes = encode_csr(&sample());
        let cut = &bytes[..bytes.len() - 3];
        assert_eq!(decode_csr(cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        buf.put_u32(0xdeadbeef);
        buf.put_u16(VERSION);
        assert_eq!(decode_csr(buf), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        buf.put_u32(MAGIC);
        buf.put_u16(99);
        assert_eq!(decode_csr(buf), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn f32_and_u64_and_string_roundtrip() {
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &[1.5, -2.25]);
        put_u64_slice(&mut buf, &[7, u64::MAX]);
        put_string(&mut buf, "kandian");
        let mut r = Reader::new(&buf);
        assert_eq!(r.f32_vec().expect("f32"), vec![1.5, -2.25]);
        assert_eq!(r.u64_vec().expect("u64"), vec![7, u64::MAX]);
        assert_eq!(r.string().expect("string"), "kandian");
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_checks_every_read_and_every_count() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.bytes(2), Err(DecodeError::Truncated));
        assert_eq!(r.fits(1, 1), Ok(1));
        assert_eq!(r.fits(2, 1), Err(DecodeError::Truncated));
        assert_eq!(r.fits(usize::MAX, 2), Err(DecodeError::Truncated));
        assert_eq!(r.f32s(usize::MAX), Err(DecodeError::Truncated));
        assert_eq!(r.u64s(usize::MAX / 2), Err(DecodeError::Truncated));
        assert_eq!(r.clone().finish(), Err(DecodeError::Invalid("1 trailing bytes".into())));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.finish(), Ok(()));

        let mut hostile = Vec::new();
        hostile.put_u64(u64::MAX / 2);
        hostile.put_u64(0);
        assert_eq!(Reader::new(&hostile).count(1), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&hostile).f32_vec(), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&hostile).string(), Err(DecodeError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the CRC-32/IEEE check suite (zlib's crc32).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_every_single_byte_flip() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[pos] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at {pos}:{bit} undetected");
            }
        }
    }

    #[test]
    fn empty_slices_roundtrip() {
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &[]);
        assert_eq!(Reader::new(&buf).f32_vec().expect("empty"), Vec::<f32>::new());
    }
}

//! The `metadpa-ckpt/v2` on-disk checkpoint container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic        8 bytes  b"MDPACKPT"
//! offset 8   version      u32      currently 2
//! offset 12  meta_len     u64
//! offset 20  meta         meta_len bytes of UTF-8 JSON
//!            n_tensors    u64
//!            per tensor:
//!              name_len   u64
//!              name       name_len bytes of UTF-8
//!              rows       u64
//!              cols       u64
//!              payload    rows*cols f32-LE values
//! footer     crc32        u32      CRC-32 (IEEE) of everything above
//! ```
//!
//! **Tensor encoding.** Values are stored as the f32 they are in memory,
//! so a save → load → save cycle is byte-identical and a loaded model
//! scores bit-exactly like the one that was saved. This module is the only
//! place that knows the payload width.
//!
//! **Version 1** (read, never written) had the same layout with one
//! difference: its payload was f64-LE, the exact widening of each f32,
//! unless the metadata blob contained the literal
//! `"tensor_encoding":"f32"`, in which case it was f32-LE as in version 2.
//! Both v1 encodings decode to the same tensors.
//!
//! Loading never panics. Every failure is a [`CkptError`] carrying the
//! file path, the byte offset where decoding stopped, and a
//! [`CkptErrorKind`] — wrong magic, unsupported version, truncation,
//! CRC mismatch and structural nonsense are all distinguishable.

use std::fmt;
use std::sync::OnceLock;

use metadpa_tensor::Matrix;

/// File magic: the first 8 bytes of every checkpoint.
pub const MAGIC: &[u8; 8] = b"MDPACKPT";

/// The format version this build writes.
pub const VERSION: u32 = 2;

/// Schema label used in logs and docs.
pub const CKPT_SCHEMA: &str = "metadpa-ckpt/v2";

/// Upper bound on a tensor-name length; longer names mean a scrambled
/// length field, not a real checkpoint.
const MAX_NAME_LEN: u64 = 4096;

/// The metadata substring that switched a version-1 payload to f32-LE
/// (matched as a substring: the container does not parse the JSON it
/// transports). Version 2 ignores it.
const V1_F32_MARKER: &str = "\"tensor_encoding\":\"f32\"";

/// What went wrong while loading a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CkptErrorKind {
    /// The underlying filesystem operation failed.
    Io,
    /// The file ended before the declared structure did.
    Truncated,
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// The version field names a format this build does not read.
    UnsupportedVersion,
    /// The CRC footer does not match the content (bit rot, partial write).
    Corrupt,
    /// Structurally invalid: absurd lengths, bad UTF-8, unknown tensor
    /// names, metadata that does not parse.
    Malformed,
}

impl CkptErrorKind {
    fn label(self) -> &'static str {
        match self {
            CkptErrorKind::Io => "io error",
            CkptErrorKind::Truncated => "truncated",
            CkptErrorKind::BadMagic => "bad magic",
            CkptErrorKind::UnsupportedVersion => "unsupported version",
            CkptErrorKind::Corrupt => "corrupt",
            CkptErrorKind::Malformed => "malformed",
        }
    }
}

/// A typed checkpoint failure: file, byte offset, kind and a human
/// explanation. The offset points at the field that failed to decode.
#[derive(Clone, Debug)]
pub struct CkptError {
    /// Path (or label) of the offending file.
    pub path: String,
    /// Byte offset where decoding stopped.
    pub offset: u64,
    /// Failure category.
    pub kind: CkptErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint {}: {} at byte {}: {}",
            self.path,
            self.kind.label(),
            self.offset,
            self.message
        )
    }
}

impl std::error::Error for CkptError {}

/// The in-memory form of one checkpoint file: a JSON metadata blob plus
/// an ordered named-tensor table.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Arbitrary UTF-8 JSON describing the tensors (schema, provenance…).
    pub meta_json: String,
    /// Named tensors in file order.
    pub tensors: Vec<(String, Matrix)>,
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Serializes a checkpoint to the `metadpa-ckpt/v2` byte layout.
pub fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let payload: usize =
        ckpt.tensors.iter().map(|(n, m)| 24 + n.len() + 4 * m.rows() * m.cols()).sum();
    let mut buf = Vec::with_capacity(28 + ckpt.meta_json.len() + payload + 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let meta = ckpt.meta_json.as_bytes();
    buf.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    buf.extend_from_slice(meta);
    buf.extend_from_slice(&(ckpt.tensors.len() as u64).to_le_bytes());
    for (name, m) in &ckpt.tensors {
        buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(m.rows() as u64).to_le_bytes());
        buf.extend_from_slice(&(m.cols() as u64).to_le_bytes());
        for &v in m.as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Writes a checkpoint to `path` atomically enough for our purposes
/// (single `fs::write` of the fully encoded buffer).
pub fn save(path: &str, ckpt: &Checkpoint) -> Result<(), CkptError> {
    std::fs::write(path, encode(ckpt)).map_err(|e| CkptError {
        path: path.to_string(),
        offset: 0,
        kind: CkptErrorKind::Io,
        message: e.to_string(),
    })
}

/// Bounds-checked little-endian reader over the checkpoint body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a str,
}

impl<'a> Reader<'a> {
    fn err(&self, kind: CkptErrorKind, message: impl Into<String>) -> CkptError {
        CkptError {
            path: self.path.to_string(),
            offset: self.pos as u64,
            kind,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        let remain = self.buf.len() - self.pos;
        if remain < n {
            return Err(self.err(
                CkptErrorKind::Truncated,
                format!("need {n} bytes for {what}, {remain} remain"),
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CkptError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CkptError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// Decodes a checkpoint from bytes; `path` labels errors only.
pub fn decode(path: &str, buf: &[u8]) -> Result<Checkpoint, CkptError> {
    let mut r = Reader { buf, pos: 0, path };
    let magic = r.take(8, "the file magic")?;
    if magic != MAGIC {
        r.pos = 0;
        return Err(r.err(
            CkptErrorKind::BadMagic,
            format!("expected {MAGIC:?}, found {magic:?} — not a metadpa checkpoint"),
        ));
    }
    let version = r.u32("the version field")?;
    if version != 1 && version != VERSION {
        r.pos = 8;
        return Err(r.err(
            CkptErrorKind::UnsupportedVersion,
            format!("file is version {version}, this build reads versions 1 and {VERSION}"),
        ));
    }
    if buf.len() < r.pos + 4 {
        return Err(r.err(CkptErrorKind::Truncated, "file ends before the CRC footer"));
    }
    // Everything between here and the 4-byte footer is the CRC-protected
    // body; structural errors are reported first (they carry a precise
    // offset), the CRC verdict last.
    let body_end = buf.len() - 4;
    let mut r = Reader { buf: &buf[..body_end], pos: r.pos, path };

    let meta_len = r.u64("the metadata length")?;
    let meta_bytes = r.take(meta_len as usize, "the metadata blob")?;
    let meta_json = std::str::from_utf8(meta_bytes)
        .map_err(|e| r.err(CkptErrorKind::Malformed, format!("metadata is not UTF-8: {e}")))?
        .to_string();

    let width = if version == 1 && !meta_json.contains(V1_F32_MARKER) { 8 } else { 4 };
    let n_tensors = r.u64("the tensor count")?;
    let mut tensors = Vec::new();
    for t in 0..n_tensors {
        let name_len = r.u64("a tensor name length")?;
        if name_len > MAX_NAME_LEN {
            return Err(r.err(
                CkptErrorKind::Malformed,
                format!("tensor {t} name length {name_len} exceeds the {MAX_NAME_LEN} cap"),
            ));
        }
        let name_bytes = r.take(name_len as usize, "a tensor name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|e| {
                r.err(CkptErrorKind::Malformed, format!("tensor {t} name is not UTF-8: {e}"))
            })?
            .to_string();
        let rows = r.u64("tensor rows")? as usize;
        let cols = r.u64("tensor cols")? as usize;
        let n = rows.checked_mul(cols).and_then(|n| n.checked_mul(width)).ok_or_else(|| {
            r.err(
                CkptErrorKind::Malformed,
                format!("tensor {name:?} shape {rows}x{cols} overflows"),
            )
        })?;
        let payload = r.take(n, "a tensor payload")?;
        let mut data = Vec::with_capacity(rows * cols);
        if width == 4 {
            for chunk in payload.chunks_exact(4) {
                data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
            }
        } else {
            for chunk in payload.chunks_exact(8) {
                let v = f64::from_le_bytes([
                    chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
                ]);
                data.push(v as f32);
            }
        }
        tensors.push((name, Matrix::from_vec(rows, cols, data)));
    }
    if r.pos != body_end {
        return Err(r.err(
            CkptErrorKind::Malformed,
            format!("{} unexpected trailing bytes before the CRC footer", body_end - r.pos),
        ));
    }

    let stored = u32::from_le_bytes([
        buf[body_end],
        buf[body_end + 1],
        buf[body_end + 2],
        buf[body_end + 3],
    ]);
    let computed = crc32(&buf[..body_end]);
    if stored != computed {
        return Err(CkptError {
            path: path.to_string(),
            offset: body_end as u64,
            kind: CkptErrorKind::Corrupt,
            message: format!("stored CRC 0x{stored:08x} != computed 0x{computed:08x}"),
        });
    }
    Ok(Checkpoint { meta_json, tensors })
}

/// Reads and decodes a checkpoint file.
pub fn load(path: &str) -> Result<Checkpoint, CkptError> {
    let buf = std::fs::read(path).map_err(|e| CkptError {
        path: path.to_string(),
        offset: 0,
        kind: CkptErrorKind::Io,
        message: e.to_string(),
    })?;
    decode(path, &buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            meta_json: r#"{"schema":"unit"}"#.to_string(),
            tensors: vec![
                ("a.p000".into(), Matrix::from_vec(2, 3, vec![1.0, -2.5, 0.0, 3.25, 4.0, -0.125])),
                ("b".into(), Matrix::zeros(1, 1)),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ckpt = sample();
        let bytes = encode(&ckpt);
        let back = decode("mem", &bytes).expect("decode");
        assert_eq!(back, ckpt);
        // Save → load → save is byte-identical.
        assert_eq!(encode(&back), bytes);
    }

    /// The version-1 bytes of `ckpt` with `width`-byte values (8 = the
    /// f64 widening, 4 = the marked f32 encoding).
    fn encode_v1(ckpt: &Checkpoint, width: usize) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(ckpt.meta_json.len() as u64).to_le_bytes());
        buf.extend_from_slice(ckpt.meta_json.as_bytes());
        buf.extend_from_slice(&(ckpt.tensors.len() as u64).to_le_bytes());
        for (name, m) in &ckpt.tensors {
            buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&(m.rows() as u64).to_le_bytes());
            buf.extend_from_slice(&(m.cols() as u64).to_le_bytes());
            for &v in m.as_slice() {
                if width == 8 {
                    buf.extend_from_slice(&(v as f64).to_le_bytes());
                } else {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    #[test]
    fn every_checkpoint_is_written_as_v2_with_f32_payloads() {
        let ckpt = sample();
        let bytes = encode(&ckpt);
        assert_eq!(bytes[8..12], 2u32.to_le_bytes(), "version field");
        let n_values: usize = ckpt.tensors.iter().map(|(_, m)| m.rows() * m.cols()).sum();
        let fixed: usize = 8 + 4 + 8 + ckpt.meta_json.len() // magic, version, meta_len, meta
            + 8                                             // n_tensors
            + ckpt.tensors.iter().map(|(n, _)| 24 + n.len()).sum::<usize>()
            + 4; // crc
        assert_eq!(bytes.len(), fixed + 4 * n_values, "4-byte payload per value");
    }

    #[test]
    fn version_1_checkpoints_decode_in_both_encodings() {
        let f64_ckpt = sample();
        let back = decode("v1", &encode_v1(&f64_ckpt, 8)).expect("unmarked v1 reads f64");
        assert_eq!(back, f64_ckpt);

        let mut f32_ckpt = sample();
        f32_ckpt.meta_json = format!("{{\"schema\":\"unit\",{V1_F32_MARKER}}}");
        let back = decode("v1", &encode_v1(&f32_ckpt, 4)).expect("marked v1 reads f32");
        assert_eq!(back, f32_ckpt);
        // A re-save writes version 2 and keeps the metadata as it was.
        assert_eq!(decode("v2", &encode(&back)).expect("v2"), f32_ckpt);

        // The marker means nothing to version 2: a width mismatch is caught.
        let mut wrong = encode_v1(&f64_ckpt, 8);
        wrong[8..12].copy_from_slice(&VERSION.to_le_bytes());
        assert!(decode("v2", &wrong).is_err(), "an f64 payload is not a v2 file");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wrong_magic_and_future_version_are_typed() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        let err = decode("mem", &bytes).unwrap_err();
        assert_eq!(err.kind, CkptErrorKind::BadMagic);
        assert_eq!(err.offset, 0);

        let mut bytes = encode(&sample());
        bytes[8] = 9; // version 9
        let err = decode("mem", &bytes).unwrap_err();
        assert_eq!(err.kind, CkptErrorKind::UnsupportedVersion);
        assert_eq!(err.offset, 8);
        assert!(err.to_string().contains("version 9"), "{err}");
    }

    #[test]
    fn flipped_payload_byte_fails_the_crc() {
        let mut bytes = encode(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode("mem", &bytes).unwrap_err();
        // Depending on which field the flip lands in, this is a CRC
        // failure or a structural error — never a success, never a panic.
        assert!(matches!(
            err.kind,
            CkptErrorKind::Corrupt | CkptErrorKind::Malformed | CkptErrorKind::Truncated
        ));
    }
}

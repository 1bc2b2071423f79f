//! The frozen serving artifact: an immutable, versioned, checksummed
//! snapshot of a trained model in serving layout.
//!
//! Binary format (all integers little-endian):
//!
//! ```text
//! magic[8]  = "OPTSRVA\0"
//! version   u32  (currently 2)
//! checksum  u64  FNV-1a 64 over every byte after this field
//! ---- checksummed payload ----
//! quant u8 · layer_norm u8 · fact_fn u8 · backend u8
//! orig_dim u32 · cross_dim u32
//! hidden_count u32 · hidden[i] u32 ...
//! num_fields u32 · num_pairs u32 · orig_vocab u32 · cross_vocab u32
//! pair_offsets[num_pairs] u32 · pair_vocab_sizes[num_pairs] u32
//! arch[num_pairs] bytes of 'M'/'F'/'N'
//! orig_store desc · cross_store desc   (v3: see below)
//! row_map[orig_vocab] u32       (training row id → arena row;
//!                                present only when orig_store is dense)
//! tensor_count u32, then per tensor:
//!   name_len u32 · name bytes · enc u8 · rows u32 · cols u32
//!   payload: f32 rows·cols·4 B | f16 rows·cols·2 B
//!          | int8 rows·4 B scales then rows·cols·1 B values
//! ```
//!
//! A store descriptor is `tag u8` (0 = dense) optionally followed by
//! parameters: tag 1 (hashed quotient-remainder) and tag 2 (hashed
//! double-hash) carry `param u32` (bucket / rows) then `seed u64`. A
//! dense table stores one tensor under its base name (`e_orig`); a
//! hashed table stores its two sub-tables as `<name>.t1` / `<name>.t2`.
//! The scorer loads them into the store type training used
//! ([`optinter_nn::EmbedStore`]) and looks rows up through it, so f32
//! serving stays bit-exact.
//!
//! Decoding is total: every malformed input — truncation, a flipped bit,
//! an unknown version — maps to a typed [`ArtifactError`]; nothing in
//! this module panics on untrusted bytes. Quantized tensors keep their
//! *stored* payload in [`TensorData`], so encode(decode(bytes)) == bytes
//! holds without re-quantizing.

use crate::quant::{f16_bits_to_f32, f32_to_f16_bits, quantize_row_i8};
use optinter_core::arch::{architecture_from_string, architecture_to_string};
use optinter_core::net::DataDims;
use optinter_core::{Architecture, FactFn};
use optinter_nn::StoreKind;
use optinter_tensor::kernels::Backend;
use optinter_tensor::Matrix;
use std::fmt;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// File magic: "OPTSRV" + artifact-format marker + NUL.
pub const MAGIC: [u8; 8] = *b"OPTSRVA\0";
/// Current artifact format version. Version 2 added the `backend` byte
/// (the kernel backend active when the model was frozen; informational,
/// since every backend computes the same bits). Version 3 added the
/// per-table store descriptors (dense vs compositional hashed) and made
/// `row_map` conditional on the original table being dense. Older
/// versions are rejected rather than silently defaulted: the version
/// field is outside the checksum, so inferring layout from it on
/// mismatched inputs would turn bit flips into misparses.
pub const VERSION: u32 = 3;

/// Hard cap on tensor-name length: far above every name a model exports
/// (`e_orig.t1`, `fact_weights`, `mlp.{i}`), so a corrupt length is caught
/// before it sizes a read.
const MAX_NAME_LEN: usize = 4096;
/// Hard cap on the MLP depth recorded in an artifact.
const MAX_HIDDEN: usize = 64;

/// Everything that can go wrong reading an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The version field names a format this build cannot read.
    UnsupportedVersion(u32),
    /// The input ended before the named section was complete.
    Truncated(&'static str),
    /// The bytes are structurally invalid (failed checksum, inconsistent
    /// counts, unknown tags, ...).
    Corrupt(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic => write!(f, "not an OptInter serving artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (this build reads {VERSION})"
                )
            }
            ArtifactError::Truncated(what) => write!(f, "artifact truncated while reading {what}"),
            ArtifactError::Corrupt(why) => write!(f, "artifact corrupt: {why}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Row-quantization mode applied to the embedding tables at freeze time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    /// Full precision: bit-identical to the training weights.
    F32,
    /// IEEE binary16 per element.
    F16,
    /// Symmetric per-row int8 with an f32 scale.
    Int8,
}

impl Quant {
    fn tag(self) -> u8 {
        match self {
            Quant::F32 => 0,
            Quant::F16 => 1,
            Quant::Int8 => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, ArtifactError> {
        match t {
            0 => Ok(Quant::F32),
            1 => Ok(Quant::F16),
            2 => Ok(Quant::Int8),
            other => Err(ArtifactError::Corrupt(format!("unknown quant tag {other}"))),
        }
    }

    /// Human-readable name (CLI flag spelling).
    pub fn name(self) -> &'static str {
        match self {
            Quant::F32 => "f32",
            Quant::F16 => "f16",
            Quant::Int8 => "int8",
        }
    }
}

/// How an embedding table is stored in the artifact: the training
/// store's kind, plus the hash seed a hashed store derives its slots from
/// (0 for a dense store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreDesc {
    /// Dense, or the hashed scheme and its sub-table size.
    pub kind: StoreKind,
    /// Slot-hash seed of a hashed store.
    pub seed: u64,
}

impl StoreDesc {
    /// Whether the table is stored as two composable sub-tensors.
    pub fn is_hashed(self) -> bool {
        self.kind != StoreKind::Dense
    }

    fn write(self, out: &mut Vec<u8>) {
        let (tag, param) = match self.kind {
            StoreKind::Dense => {
                out.push(0);
                return;
            }
            StoreKind::HashedQr { bucket } => (1, bucket),
            StoreKind::HashedDouble { rows } => (2, rows),
        };
        out.push(tag);
        put_u32(out, param);
        out.extend_from_slice(&self.seed.to_le_bytes());
    }

    fn read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ArtifactError> {
        let tag = r.u8(what)?;
        if tag == 0 {
            return Ok(StoreDesc {
                kind: StoreKind::Dense,
                seed: 0,
            });
        }
        if tag > 2 {
            return Err(ArtifactError::Corrupt(format!(
                "{what}: unknown store tag {tag}"
            )));
        }
        let param = r.u32(what)?;
        let seed = r.u64(what)?;
        if param == 0 {
            return Err(ArtifactError::Corrupt(format!(
                "{what}: hashed store with zero-row sub-table"
            )));
        }
        let kind = if tag == 1 {
            StoreKind::HashedQr { bucket: param }
        } else {
            StoreKind::HashedDouble { rows: param }
        };
        Ok(StoreDesc { kind, seed })
    }
}

fn fact_fn_tag(f: FactFn) -> u8 {
    match f {
        FactFn::Hadamard => 0,
        FactFn::PointwiseAdd => 1,
        FactFn::Generalized => 2,
    }
}

fn fact_fn_from_tag(t: u8) -> Result<FactFn, ArtifactError> {
    match t {
        0 => Ok(FactFn::Hadamard),
        1 => Ok(FactFn::PointwiseAdd),
        2 => Ok(FactFn::Generalized),
        other => Err(ArtifactError::Corrupt(format!(
            "unknown fact_fn tag {other}"
        ))),
    }
}

/// One tensor in its stored encoding. The scorer dequantizes on load;
/// serialization writes the stored payload verbatim, which is what makes
/// freeze → load → freeze byte-identical.
#[derive(Debug, Clone)]
pub enum TensorData {
    /// Full-precision matrix.
    F32(Matrix),
    /// binary16 elements, row-major.
    F16 {
        rows: usize,
        cols: usize,
        bits: Vec<u16>,
    },
    /// Per-row symmetric int8: `values[r*cols + c] * scales[r]`.
    Int8 {
        rows: usize,
        cols: usize,
        scales: Vec<f32>,
        values: Vec<i8>,
    },
}

impl TensorData {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            TensorData::F32(m) => m.rows(),
            TensorData::F16 { rows, .. } | TensorData::Int8 { rows, .. } => *rows,
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            TensorData::F32(m) => m.cols(),
            TensorData::F16 { cols, .. } | TensorData::Int8 { cols, .. } => *cols,
        }
    }

    /// Encoding tag as stored on disk.
    fn enc_tag(&self) -> u8 {
        match self {
            TensorData::F32(_) => 0,
            TensorData::F16 { .. } => 1,
            TensorData::Int8 { .. } => 2,
        }
    }

    /// Materializes the f32 matrix the scorer computes with.
    pub fn to_matrix(&self) -> Matrix {
        match self {
            TensorData::F32(m) => m.clone(),
            TensorData::F16 { rows, cols, bits } => {
                let data: Vec<f32> = bits.iter().map(|&h| f16_bits_to_f32(h)).collect();
                Matrix::from_vec(*rows, *cols, data)
            }
            TensorData::Int8 {
                rows,
                cols,
                scales,
                values,
            } => {
                let mut data = Vec::with_capacity(rows * cols);
                for r in 0..*rows {
                    let s = scales[r];
                    for &v in &values[r * cols..(r + 1) * cols] {
                        data.push(v as f32 * s);
                    }
                }
                Matrix::from_vec(*rows, *cols, data)
            }
        }
    }

    /// Encodes an f32 matrix under the given quantization mode.
    pub fn encode(m: &Matrix, quant: Quant) -> Self {
        match quant {
            Quant::F32 => TensorData::F32(m.clone()),
            Quant::F16 => TensorData::F16 {
                rows: m.rows(),
                cols: m.cols(),
                bits: m.as_slice().iter().map(|&x| f32_to_f16_bits(x)).collect(),
            },
            Quant::Int8 => {
                let (rows, cols) = m.shape();
                let mut scales = Vec::with_capacity(rows);
                let mut values = vec![0i8; rows * cols];
                for r in 0..rows {
                    let scale = quantize_row_i8(m.row(r), &mut values[r * cols..(r + 1) * cols]);
                    scales.push(scale);
                }
                TensorData::Int8 {
                    rows,
                    cols,
                    scales,
                    values,
                }
            }
        }
    }
}

/// A frozen model: serving-layout metadata plus every weight tensor in
/// its stored encoding. Immutable by convention — nothing in this crate
/// mutates one after construction.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    /// Original-embedding width `s1`.
    pub orig_dim: usize,
    /// Cross-embedding width `s2`.
    pub cross_dim: usize,
    /// MLP hidden widths.
    pub hidden: Vec<usize>,
    /// Whether hidden blocks use LayerNorm.
    pub layer_norm: bool,
    /// Factorization function baked into the architecture.
    pub fact_fn: FactFn,
    /// Kernel backend active when the model was frozen. Informational
    /// only: every backend computes the same bits, so loading does NOT
    /// force it — the scorer dispatches through the process-wide selection
    /// and reports both.
    pub backend: Backend,
    /// Quantization applied to the embedding tables.
    pub quant: Quant,
    /// Dataset dimensions the model was trained against.
    pub dims: DataDims,
    /// Per-pair interaction methods.
    pub arch: Architecture,
    /// Storage scheme of the original-feature table.
    pub orig_store: StoreDesc,
    /// Storage scheme of the compact cross-product table.
    pub cross_store: StoreDesc,
    /// Training-time global embedding id → hot-first arena row. Empty
    /// when `orig_store` is hashed (sub-table rows are shared across ids,
    /// so there is no per-id arena to reorder).
    pub row_map: Vec<u32>,
    /// `(name, data)` pairs: `e_orig` (arena order), `e_cross`, optional
    /// `fact_weights`, then `mlp.0 ..` in visit order.
    pub tensors: Vec<(String, TensorData)>,
}

impl FrozenModel {
    /// Looks a tensor up by name.
    pub fn tensor(&self, name: &str) -> Option<&TensorData> {
        self.tensors.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Serializes the artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = vec![
            self.quant.tag(),
            self.layer_norm as u8,
            fact_fn_tag(self.fact_fn),
            self.backend.tag(),
        ];
        put_u32(&mut payload, self.orig_dim as u32);
        put_u32(&mut payload, self.cross_dim as u32);
        put_u32(&mut payload, self.hidden.len() as u32);
        for &h in &self.hidden {
            put_u32(&mut payload, h as u32);
        }
        put_u32(&mut payload, self.dims.num_fields as u32);
        put_u32(&mut payload, self.dims.num_pairs as u32);
        put_u32(&mut payload, self.dims.orig_vocab);
        put_u32(&mut payload, self.dims.cross_vocab);
        for &v in &self.dims.pair_offsets {
            put_u32(&mut payload, v);
        }
        for &v in &self.dims.pair_vocab_sizes {
            put_u32(&mut payload, v);
        }
        payload.extend_from_slice(architecture_to_string(&self.arch).as_bytes());
        self.orig_store.write(&mut payload);
        self.cross_store.write(&mut payload);
        if !self.orig_store.is_hashed() {
            for &v in &self.row_map {
                put_u32(&mut payload, v);
            }
        }
        put_u32(&mut payload, self.tensors.len() as u32);
        for (name, data) in &self.tensors {
            put_u32(&mut payload, name.len() as u32);
            payload.extend_from_slice(name.as_bytes());
            payload.push(data.enc_tag());
            put_u32(&mut payload, data.rows() as u32);
            put_u32(&mut payload, data.cols() as u32);
            match data {
                TensorData::F32(m) => {
                    for &x in m.as_slice() {
                        payload.extend_from_slice(&x.to_le_bytes());
                    }
                }
                TensorData::F16 { bits, .. } => {
                    for &h in bits {
                        payload.extend_from_slice(&h.to_le_bytes());
                    }
                }
                TensorData::Int8 { scales, values, .. } => {
                    for &s in scales {
                        payload.extend_from_slice(&s.to_le_bytes());
                    }
                    for &v in values {
                        payload.push(v as u8);
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(20 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes and validates an artifact.
    ///
    /// # Errors
    /// Returns a typed [`ArtifactError`] for any malformed input; never
    /// panics on untrusted bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let magic = r.take(8, "magic")?;
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let checksum = r.u64("checksum")?;
        let payload = bytes
            .get(r.pos..)
            .ok_or(ArtifactError::Truncated("payload"))?;
        if fnv1a64(payload) != checksum {
            return Err(ArtifactError::Corrupt("checksum mismatch".to_string()));
        }

        let quant = Quant::from_tag(r.u8("quant")?)?;
        let layer_norm = match r.u8("layer_norm")? {
            0 => false,
            1 => true,
            other => {
                return Err(ArtifactError::Corrupt(format!(
                    "bad layer_norm byte {other}"
                )))
            }
        };
        let fact_fn = fact_fn_from_tag(r.u8("fact_fn")?)?;
        let backend_tag = r.u8("backend")?;
        let backend = Backend::from_tag(backend_tag).ok_or_else(|| {
            ArtifactError::Corrupt(format!("unknown kernel backend tag {backend_tag}"))
        })?;
        let orig_dim = r.u32("orig_dim")? as usize;
        let cross_dim = r.u32("cross_dim")? as usize;
        if orig_dim == 0 || cross_dim == 0 {
            return Err(ArtifactError::Corrupt("zero embedding width".to_string()));
        }
        let hidden_count = r.u32("hidden_count")? as usize;
        if hidden_count > MAX_HIDDEN {
            return Err(ArtifactError::Corrupt(format!(
                "implausible hidden layer count {hidden_count}"
            )));
        }
        let mut hidden = Vec::with_capacity(hidden_count);
        for _ in 0..hidden_count {
            hidden.push(r.u32("hidden width")? as usize);
        }
        let num_fields = r.u32("num_fields")? as usize;
        let num_pairs = r.u32("num_pairs")? as usize;
        if num_fields < 2 || num_pairs != num_fields * (num_fields - 1) / 2 {
            return Err(ArtifactError::Corrupt(format!(
                "pair count {num_pairs} inconsistent with {num_fields} fields"
            )));
        }
        let orig_vocab = r.u32("orig_vocab")?;
        let cross_vocab = r.u32("cross_vocab")?;
        let pair_offsets = r.u32_vec(num_pairs, "pair_offsets")?;
        let pair_vocab_sizes = r.u32_vec(num_pairs, "pair_vocab_sizes")?;
        for (p, (&offset, &size)) in pair_offsets.iter().zip(&pair_vocab_sizes).enumerate() {
            if offset.checked_add(size).is_none_or(|end| end > cross_vocab) {
                return Err(ArtifactError::Corrupt(format!(
                    "pair {p}'s cross block {offset}+{size} exceeds cross_vocab {cross_vocab}"
                )));
            }
        }
        let arch_bytes = r.take(num_pairs, "architecture")?;
        let arch_str = std::str::from_utf8(arch_bytes)
            .map_err(|_| ArtifactError::Corrupt("architecture is not UTF-8".to_string()))?;
        let arch = architecture_from_string(arch_str)
            .map_err(|e| ArtifactError::Corrupt(format!("bad architecture: {e}")))?;
        let orig_store = StoreDesc::read(&mut r, "orig_store")?;
        let cross_store = StoreDesc::read(&mut r, "cross_store")?;
        let row_map = if !orig_store.is_hashed() {
            let map = r.u32_vec(orig_vocab as usize, "row_map")?;
            validate_permutation(&map, orig_vocab)?;
            map
        } else {
            Vec::new()
        };

        let tensor_count = r.u32("tensor_count")? as usize;
        let mut tensors = Vec::with_capacity(tensor_count.min(1024));
        for i in 0..tensor_count {
            let name_len = r.u32("tensor name length")? as usize;
            if name_len > MAX_NAME_LEN {
                return Err(ArtifactError::Corrupt(format!(
                    "tensor {i} name length {name_len} exceeds {MAX_NAME_LEN}"
                )));
            }
            let name_bytes = r.take(name_len, "tensor name")?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| ArtifactError::Corrupt(format!("tensor {i} name is not UTF-8")))?
                .to_string();
            let enc = r.u8("tensor encoding")?;
            let rows = r.u32("tensor rows")? as usize;
            let cols = r.u32("tensor cols")? as usize;
            let count = rows
                .checked_mul(cols)
                .ok_or_else(|| ArtifactError::Corrupt(format!("tensor `{name}` shape overflow")))?;
            let data = match enc {
                0 => {
                    let raw = r.take_mul(count, 4, "f32 tensor data")?;
                    let vals: Vec<f32> = raw
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes(le_bytes(c)))
                        .collect();
                    TensorData::F32(Matrix::from_vec(rows, cols, vals))
                }
                1 => {
                    let raw = r.take_mul(count, 2, "f16 tensor data")?;
                    let bits: Vec<u16> = raw
                        .chunks_exact(2)
                        .map(|c| u16::from_le_bytes(le_bytes(c)))
                        .collect();
                    TensorData::F16 { rows, cols, bits }
                }
                2 => {
                    let raw_scales = r.take_mul(rows, 4, "int8 tensor scales")?;
                    let scales: Vec<f32> = raw_scales
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes(le_bytes(c)))
                        .collect();
                    let raw = r.take(count, "int8 tensor data")?;
                    let values: Vec<i8> = raw.iter().map(|&b| b as i8).collect();
                    TensorData::Int8 {
                        rows,
                        cols,
                        scales,
                        values,
                    }
                }
                other => {
                    return Err(ArtifactError::Corrupt(format!(
                        "tensor `{name}` has unknown encoding {other}"
                    )))
                }
            };
            tensors.push((name, data));
        }
        if r.pos != bytes.len() {
            return Err(ArtifactError::Corrupt(format!(
                "{} trailing bytes after the last tensor",
                bytes.len() - r.pos
            )));
        }

        Ok(Self {
            orig_dim,
            cross_dim,
            hidden,
            layer_norm,
            fact_fn,
            backend,
            quant,
            dims: DataDims {
                num_fields,
                num_pairs,
                orig_vocab,
                cross_vocab,
                pair_offsets,
                pair_vocab_sizes,
            },
            arch,
            orig_store,
            cross_store,
            row_map,
            tensors,
        })
    }

    /// Writes the artifact to a file, crash-safely: the bytes go to the
    /// sibling `<path>.tmp`, are synced to disk, and that file is then
    /// renamed over `path`. A write that fails or is cut short leaves any
    /// previous artifact at `path` in place.
    pub fn write_file(&self, path: &Path) -> Result<(), ArtifactError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = std::fs::File::create(&tmp).and_then(|mut f| {
            f.write_all(&self.to_bytes())?;
            f.sync_all()
        });
        if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
            // Best effort: never leave a partial artifact behind. Fails
            // harmlessly when no temp file was created.
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        // The rename survives a crash only once its directory is synced.
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    }

    /// Reads and validates an artifact file.
    pub fn read_file(path: &Path) -> Result<Self, ArtifactError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }
}

/// FNV-1a 64-bit over a byte slice.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `row_map` must be a bijection on `0..n` or lookups would silently read
/// the wrong rows.
fn validate_permutation(map: &[u32], n: u32) -> Result<(), ArtifactError> {
    let mut seen = vec![false; n as usize];
    for (i, &v) in map.iter().enumerate() {
        match seen.get_mut(v as usize) {
            Some(slot) if !*slot => *slot = true,
            Some(_) => {
                return Err(ArtifactError::Corrupt(format!(
                    "row_map maps two ids to row {v}"
                )))
            }
            None => {
                return Err(ArtifactError::Corrupt(format!(
                    "row_map[{i}] = {v} out of range (vocab {n})"
                )))
            }
        }
    }
    Ok(())
}

/// Bounds-checked cursor over the input bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(ArtifactError::Truncated(what))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(ArtifactError::Truncated(what))?;
        self.pos = end;
        Ok(s)
    }

    /// `take(count * size)` with overflow protection.
    fn take_mul(
        &mut self,
        count: usize,
        size: usize,
        what: &'static str,
    ) -> Result<&'a [u8], ArtifactError> {
        let n = count
            .checked_mul(size)
            .ok_or_else(|| ArtifactError::Corrupt(format!("{what}: length overflow")))?;
        self.take(n, what)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ArtifactError> {
        let s = self.take(1, what)?;
        s.first().copied().ok_or(ArtifactError::Truncated(what))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(le_bytes(self.take(4, what)?)))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(le_bytes(self.take(8, what)?)))
    }

    fn u32_vec(&mut self, count: usize, what: &'static str) -> Result<Vec<u32>, ArtifactError> {
        let raw = self.take_mul(count, 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(le_bytes(c)))
            .collect())
    }
}

/// Copies a slice into a fixed array without indexing. Callers pass slices
/// whose length `take`/`chunks_exact` already pinned to `N`; a shorter
/// slice zero-fills instead of panicking, keeping the decode path
/// structurally panic-free.
fn le_bytes<const N: usize>(c: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (d, s) in out.iter_mut().zip(c) {
        *d = *s;
    }
    out
}

//! Model persistence: architectures as compact strings, trained network
//! weights as a small self-describing binary format.
//!
//! A production CTR system re-trains offline and serves the frozen model;
//! this module provides that handoff. Architectures serialize to a string
//! of `M`/`F`/`N` tags (one per pair, flat order); weights serialize to a
//! length-prefixed binary file with a magic header.

use crate::arch::{Architecture, Method};
use crate::net::OptInterNet;
use optinter_tensor::Matrix;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

/// Magic header of the weight file format.
const MAGIC: &[u8; 8] = b"OPTINTR1";

/// Serializes an architecture as one tag character per pair, e.g. `"MMFN"`.
pub fn architecture_to_string(arch: &Architecture) -> String {
    arch.methods().iter().map(|m| m.tag()).collect()
}

/// Parses an architecture from its string form.
///
/// # Errors
/// Returns an error for empty input or unknown tag characters.
pub fn architecture_from_string(s: &str) -> Result<Architecture, String> {
    if s.is_empty() {
        return Err("empty architecture string".to_string());
    }
    let methods = s
        .chars()
        .map(|c| match c {
            'M' => Ok(Method::Memorize),
            'F' => Ok(Method::Factorize),
            'N' => Ok(Method::Naive),
            other => Err(format!("unknown method tag `{other}`")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Architecture::new(methods))
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Writes named matrices to a binary file.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_weights(path: &Path, weights: &[(String, Matrix)]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    write_u32(&mut w, weights.len() as u32)?;
    for (name, m) in weights {
        let name_bytes = name.as_bytes();
        write_u32(&mut w, name_bytes.len() as u32)?;
        w.write_all(name_bytes)?;
        write_u32(&mut w, m.rows() as u32)?;
        write_u32(&mut w, m.cols() as u32)?;
        for &v in m.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Reads named matrices from a binary file written by [`write_weights`].
///
/// Nothing is sized from the header before the file is known to hold it:
/// each tensor's shape is checked against the bytes left in the file.
///
/// # Errors
/// Fails on I/O errors, a malformed header, or a shape whose payload runs
/// past the end of the file (`InvalidData`).
pub fn read_weights(path: &Path) -> io::Result<Vec<(String, Matrix)>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an OptInter weight file (bad magic)",
        ));
    }
    let count = read_u32(&mut r)?;
    let mut out = Vec::new();
    for _ in 0..count {
        let name_len = read_u32(&mut r)? as usize;
        if name_len > 4096 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "weight name too long",
            ));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let rows = read_u32(&mut r)? as usize;
        let cols = read_u32(&mut r)? as usize;
        let left = len.saturating_sub(r.stream_position()?);
        let bytes = rows.checked_mul(cols).and_then(|n| n.checked_mul(4));
        if bytes.is_none_or(|b| b as u64 > left) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("tensor `{name}` of shape {rows} x {cols} runs past the end of the file"),
            ));
        }
        let mut data = vec![0.0f32; rows * cols];
        let mut buf = [0u8; 4];
        for v in data.iter_mut() {
            r.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        out.push((name, Matrix::from_vec(rows, cols, data)));
    }
    Ok(out)
}

/// Saves a trained network's weights and architecture:
/// `<path>` holds the weights, `<path>.arch` the architecture string.
///
/// # Errors
/// Propagates I/O errors.
pub fn save_net(net: &mut OptInterNet, path: &Path) -> io::Result<()> {
    write_weights(path, &net.export_weights())?;
    std::fs::write(
        path.with_extension("arch"),
        architecture_to_string(net.architecture()),
    )
}

/// Loads weights saved by [`save_net`] into a freshly-built network of the
/// same configuration and architecture.
///
/// # Errors
/// Fails on I/O errors or shape mismatches.
pub fn load_net_weights(net: &mut OptInterNet, path: &Path) -> io::Result<()> {
    let weights = read_weights(path)?;
    net.import_weights(&weights)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptInterConfig;
    use crate::net::DataDims;
    use crate::trainer::train_fixed;
    use optinter_data::{BatchIter, Profile};

    #[test]
    fn architecture_string_roundtrip() {
        let arch = Architecture::new(vec![
            Method::Memorize,
            Method::Factorize,
            Method::Naive,
            Method::Memorize,
        ]);
        let s = architecture_to_string(&arch);
        assert_eq!(s, "MFNM");
        assert_eq!(architecture_from_string(&s).expect("parse"), arch);
    }

    #[test]
    fn architecture_string_rejects_garbage() {
        assert!(architecture_from_string("").is_err());
        assert!(architecture_from_string("MFX").is_err());
    }

    #[test]
    fn weight_file_roundtrip() {
        let dir = std::env::temp_dir().join("optinter-persist-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("weights.bin");
        let weights = vec![
            (
                "a".to_string(),
                Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
            ),
            ("b.long/name".to_string(), Matrix::filled(1, 3, -0.5)),
        ];
        write_weights(&path, &weights).expect("write");
        let back = read_weights(&path).expect("read");
        assert_eq!(back, weights);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = std::env::temp_dir().join("optinter-persist-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("garbage.bin");
        std::fs::write(&path, b"NOTMAGIC0000").expect("write");
        assert!(read_weights(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Writes `bytes` to a scratch file and reads it back as weights.
    fn read_bytes(name: &str, bytes: &[u8]) -> io::Result<Vec<(String, Matrix)>> {
        let dir = std::env::temp_dir().join("optinter-persist-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write");
        let read = read_weights(&path);
        std::fs::remove_file(&path).ok();
        read
    }

    #[test]
    fn corrupt_headers_are_errors_not_panics() {
        let header = |count: u32| [MAGIC.as_slice(), &count.to_le_bytes()].concat();
        // One tensor `a` of shape u32::MAX x u32::MAX, then one float: 29
        // bytes whose header asks for 2^66 bytes of payload.
        let mut huge = header(1);
        huge.extend_from_slice(&1u32.to_le_bytes());
        huge.push(b'a');
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(huge.len(), 29);
        let err = read_bytes("huge-shape.bin", &huge).expect_err("huge shape");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A count of u32::MAX tensors with none behind it.
        assert!(read_bytes("huge-count.bin", &header(u32::MAX)).is_err());
        // A valid file cut inside its last tensor's payload.
        let dir = std::env::temp_dir().join("optinter-persist-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("whole.bin");
        let weights = vec![("w".to_string(), Matrix::filled(3, 5, 0.25))];
        write_weights(&path, &weights).expect("write");
        let whole = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        let cut = &whole[..whole.len() - 6];
        let err = read_bytes("truncated.bin", cut).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trained_net_roundtrips_predictions() {
        let bundle = Profile::Tiny.bundle_with_rows(1200, 41);
        let cfg = OptInterConfig {
            seed: 4,
            retrain_epochs: 1,
            ..OptInterConfig::test_small()
        };
        let arch = Architecture::uniform(Method::Memorize, bundle.data.num_pairs);
        let (mut net, _) = train_fixed(&bundle, &cfg, arch.clone());
        let batch = BatchIter::new(&bundle.data, 0..64, 64, None)
            .next()
            .expect("batch");
        let before = net.predict(&batch);

        let dir = std::env::temp_dir().join("optinter-persist-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("model.bin");
        save_net(&mut net, &path).expect("save");

        // Fresh net with different seed: predictions differ before loading.
        let cfg2 = OptInterConfig {
            seed: 99,
            ..cfg.clone()
        };
        let mut fresh = OptInterNet::new(cfg2, DataDims::of(&bundle.data), arch);
        assert_ne!(fresh.predict(&batch), before);
        load_net_weights(&mut fresh, &path).expect("load");
        assert_eq!(fresh.predict(&batch), before);

        // The architecture side-file parses back.
        let arch_str = std::fs::read_to_string(path.with_extension("arch")).expect("arch file");
        assert_eq!(
            architecture_from_string(&arch_str).expect("parse"),
            *net.architecture()
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("arch")).ok();
    }

    #[test]
    fn import_rejects_shape_mismatch() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 43);
        let cfg = OptInterConfig::test_small();
        let arch = Architecture::uniform(Method::Factorize, bundle.data.num_pairs);
        let mut net = OptInterNet::new(cfg, DataDims::of(&bundle.data), arch);
        let mut weights = net.export_weights();
        weights[0].1 = Matrix::zeros(1, 1);
        assert!(net.import_weights(&weights).is_err());
    }
}

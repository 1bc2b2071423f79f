//! Workload inputs: the synthetic dataset every workload sets up first.

use crate::calib::Meter;
use crate::trace::Tracer;
use optinter_data::{DatasetBundle, EncodedDataset, Profile, Split, SyntheticGenerator};

/// Seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub encode_s: f64,
}

/// Generates and encodes `rows` rows of `profile` from `seed`: the same
/// steps as `Profile::bundle_with_rows`, timed (and traced) separately.
/// `meter` gets a block boundary between the two steps.
pub fn bundle(
    profile: Profile,
    rows: usize,
    seed: u64,
    tracer: &mut Tracer,
    meter: &mut Meter,
) -> (DatasetBundle, SetupTimes) {
    let t0 = tracer.now_ns();
    let span = tracer.enter("data.generate", 0);
    let generator = SyntheticGenerator::new(profile.spec());
    let raw = generator.generate(rows, seed);
    tracer.exit(span);
    let t1 = tracer.now_ns();
    meter.split();
    let span = tracer.enter("data.encode", 0);
    let split = Split::fractions(rows, 0.7, 0.1);
    let data = EncodedDataset::encode(&raw, split.train.clone(), profile.min_count());
    tracer.exit(span);
    let t2 = tracer.now_ns();
    let spec = generator.spec().clone();
    let planted = spec.planted.clone();
    let bundle = DatasetBundle {
        spec,
        data,
        split,
        planted,
        oracle_logits: raw.logits,
    };
    let times = SetupTimes {
        generate_s: (t1 - t0) as f64 * 1e-9,
        encode_s: (t2 - t1) as f64 * 1e-9,
    };
    (bundle, times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_library_bundle() {
        let (ours, times) = bundle(
            Profile::Tiny,
            500,
            3,
            &mut Tracer::new(false, 0),
            &mut Meter::new(false),
        );
        let lib = Profile::Tiny.bundle_with_rows(500, 3);
        assert_eq!(ours.data.fields, lib.data.fields);
        assert_eq!(ours.data.cross, lib.data.cross);
        assert_eq!(ours.data.labels, lib.data.labels);
        assert_eq!(ours.split, lib.split);
        assert_eq!(ours.planted, lib.planted);
        assert!(times.generate_s > 0.0 && times.encode_s > 0.0);
    }
}

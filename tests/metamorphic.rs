//! Metamorphic tests from the paper's algebra: a model whose combination
//! block reduces to a simpler one must score exactly as that simpler model
//! does, bit for bit, on whichever kernel backend the process resolves.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, FactFn, Method, OptInterConfig, OptInterNet};
use optinter_data::{BatchIter, DatasetBundle, PairIndexer, Profile};
use optinter_nn::{Mlp, MlpConfig};
use optinter_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// With one method on every pair, the combination block (Eq. 19) gives
/// each pair slot a closed form, so the net is its classifier over an
/// input built from the exported tables: its logits equal those of a bare
/// [`Mlp`] holding the net's exported `mlp.*` weights, run over
///
/// - all-`Naive`: `e^o`, the exported `e_orig` rows of the batch;
/// - all-`Factorize` (Hadamard): `[e^o | e_i ⊙ e_j]`, one `e_i ⊙ e_j` per
///   pair in [`PairIndexer`] order;
/// - all-`Memorize`: `[e^o | e_cross row of each pair's cross id]`. With
///   every pair memorized, the compact cross table's pair offsets are the
///   dataset's `pair_offsets`, so a global cross id is its row.
///
/// Each architecture runs at `test_small`'s widths `(s1, s2)` = (6, 4),
/// which the block runs at run time, and at (16, 8) and (16, 4), which it
/// runs as constants.
#[test]
fn uniform_net_is_a_bare_mlp_over_its_combined_inputs() {
    let bundle = Profile::Tiny.bundle_with_rows(1_500, 31);
    let dims = DataDims::of(&bundle.data);
    let small = OptInterConfig {
        seed: 5,
        num_threads: 2,
        hidden: vec![64, 32],
        ..OptInterConfig::test_small()
    };
    assert_eq!(small.fact_fn, FactFn::Hadamard);
    assert_eq!((small.orig_dim, small.cross_dim), (6, 4));
    let pair_order = PairIndexer::new(dims.num_fields);
    let mut next_offset = 0;
    for (&offset, &size) in dims.pair_offsets.iter().zip(&dims.pair_vocab_sizes) {
        assert_eq!(offset, next_offset, "pair blocks sit back to back from 0");
        next_offset += size;
    }

    for (s1, s2) in [(6, 4), (16, 8), (16, 4)] {
        let cfg = OptInterConfig {
            orig_dim: s1,
            cross_dim: s2,
            ..small.clone()
        };
        uniform_nets_at(&cfg, &bundle, &dims, &pair_order);
    }
}

/// The three uniform architectures of
/// [`uniform_net_is_a_bare_mlp_over_its_combined_inputs`] at `cfg`'s widths.
fn uniform_nets_at(
    cfg: &OptInterConfig,
    bundle: &DatasetBundle,
    dims: &DataDims,
    pair_order: &PairIndexer,
) {
    let (fields, pairs) = (dims.num_fields, dims.num_pairs);
    let (s1, s2) = (cfg.orig_dim, cfg.cross_dim);
    for method in [Method::Naive, Method::Factorize, Method::Memorize] {
        let slot = match method {
            Method::Naive => 0,
            Method::Factorize => s1,
            Method::Memorize => s2,
        };
        let width = fields * s1 + pairs * slot;
        let arch = Architecture::new(vec![method; pairs]);
        let mut net = OptInterNet::new(cfg.clone(), dims.clone(), arch);
        let case = format!("{method:?}, s1={s1} s2={s2}");
        assert_eq!(net.input_dim(), width, "{case}");
        for batch in BatchIter::new(&bundle.data, 0..1_000, 128, Some(0)) {
            assert!(net.train_batch(&batch).is_finite());
        }

        let weights = net.export_weights();
        let weight = |name: &str| {
            let (_, w) = weights
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("no exported weight `{name}`"));
            w
        };
        let mut mlp = Mlp::new(
            &mut StdRng::seed_from_u64(0),
            &MlpConfig {
                input_dim: width,
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                layer_norm: cfg.layer_norm,
                ln_eps: 1e-5,
            },
        );
        let mut copied = 0;
        mlp.visit_params(&mut |p| {
            p.value = weight(&format!("mlp.{copied}")).clone();
            copied += 1;
        });
        let exported = weights
            .iter()
            .filter(|(n, _)| n.starts_with("mlp."))
            .count();
        assert_eq!(
            copied, exported,
            "the bare MLP takes every exported mlp.* weight"
        );

        let (e_orig, e_cross) = (weight("e_orig"), weight("e_cross"));
        for rows in [1, 13, 128] {
            let batch = BatchIter::new(&bundle.data, 1_000..1_000 + rows, rows, None)
                .next()
                .expect("one batch");
            let mut x = Matrix::zeros(rows, width);
            for r in 0..rows {
                let ids = &batch.fields[r * fields..(r + 1) * fields];
                let cross = &batch.cross[r * pairs..(r + 1) * pairs];
                let (eo, slots) = x.row_mut(r).split_at_mut(fields * s1);
                for (dst, &id) in eo.chunks_exact_mut(s1).zip(ids) {
                    dst.copy_from_slice(e_orig.row(id as usize));
                }
                match method {
                    Method::Naive => assert!(slots.is_empty()),
                    Method::Factorize => {
                        for ((i, j), dst) in pair_order.iter().zip(slots.chunks_exact_mut(s1)) {
                            let (ei, ej) =
                                (e_orig.row(ids[i] as usize), e_orig.row(ids[j] as usize));
                            for ((d, &a), &b) in dst.iter_mut().zip(ei).zip(ej) {
                                *d = a * b;
                            }
                        }
                    }
                    Method::Memorize => {
                        for (dst, &id) in slots.chunks_exact_mut(s2).zip(cross) {
                            dst.copy_from_slice(e_cross.row(id as usize));
                        }
                    }
                }
            }
            let mut want = Matrix::zeros(0, 0);
            mlp.forward_into(&x, &mut want);
            let got = net.forward(&batch);
            assert_eq!(got.shape(), (rows, 1));
            assert_eq!(bits(&got), bits(&want), "{case}, {rows}-row batch");
        }
    }
}

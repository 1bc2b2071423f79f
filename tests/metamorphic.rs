//! Metamorphic tests from the paper's algebra: a model whose combination
//! block reduces to a simpler one must score exactly as that simpler model
//! does, bit for bit, on whichever kernel backend the process resolves.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet};
use optinter_data::{BatchIter, Profile};
use optinter_nn::{Layer, Mlp, MlpConfig};
use optinter_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// With every pair `Naive`, the combination block (Eq. 19) has no pair
/// slots and passes `e^o` through unchanged, so the net is its classifier
/// over the original-feature embeddings: its logits equal those of a bare
/// [`Mlp`] holding the net's exported `mlp.*` weights, run over the
/// exported `e_orig` rows of the same batch.
#[test]
fn all_naive_net_is_a_bare_mlp_over_original_embeddings() {
    let bundle = Profile::Tiny.bundle_with_rows(1_500, 31);
    let dims = DataDims::of(&bundle.data);
    let (fields, pairs) = (dims.num_fields, dims.num_pairs);
    let cfg = OptInterConfig {
        seed: 5,
        num_threads: 2,
        hidden: vec![64, 32],
        ..OptInterConfig::test_small()
    };
    let s1 = cfg.orig_dim;
    let arch = Architecture::new(vec![Method::Naive; pairs]);
    let mut net = OptInterNet::new(cfg.clone(), dims, arch);
    assert_eq!(net.input_dim(), fields * s1);
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
            input_dim: fields * s1,
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

    let e_orig = weight("e_orig");
    for rows in [1, 13, 128] {
        let batch = BatchIter::new(&bundle.data, 1_000..1_000 + rows, rows, None)
            .next()
            .expect("one batch");
        let mut eo = Matrix::zeros(rows, fields * s1);
        for (dst, &id) in eo.as_mut_slice().chunks_exact_mut(s1).zip(&batch.fields) {
            dst.copy_from_slice(e_orig.row(id as usize));
        }
        let mut want = Matrix::zeros(0, 0);
        mlp.forward_into(&eo, &mut want);
        let got = net.forward(&batch);
        assert_eq!(got.shape(), (rows, 1));
        assert_eq!(bits(&got), bits(&want), "{rows}-row batch");
    }
}

//! PIN — Product-network In Network (Qu et al. 2019): each feature pair is
//! processed by its own micro network over `[e_i, e_j, e_i ⊙ e_j]`, and the
//! micro-network outputs are concatenated with the original embeddings and
//! fed to the top MLP. The micro network is the paper's "net(e_i, e_j)"
//! learnable factorization function (Table III).

use crate::deep::{Deep, DeepBlock};
use crate::traits::{Category, Taxonomy};
use optinter_core::net::mlp_config;
use optinter_core::{Block, Inputs, OptInterConfig};
use optinter_data::PairIndexer;
use optinter_nn::{EmbeddingTable, Mlp, MlpConfig, Parameter};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// PIN: per-pair micro networks + top MLP.
pub type Pin = Deep<MicroNets>;

/// PIN's block: one micro network per pair, whose outputs follow `e^o` in
/// the top MLP's input.
pub struct MicroNets {
    subnets: Vec<Mlp>,
    num_fields: usize,
    dim: usize,
    sub_out: usize,
    /// `(i, j)` field indices of every pair, precomputed once.
    pair_list: Vec<(usize, usize)>,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    /// Per-pair micro-network inputs, held from forward to backward.
    pair_x: Vec<Matrix>,
    sub_out_buf: Matrix,
    d_out: Matrix,
    d_x: Matrix,
}

impl Pin {
    /// Creates a PIN. `cfg.subnet` gives the micro-network shape: all but
    /// the last entry are hidden widths, the last is the output width
    /// (Table IV: `sub-net=[40,5]`).
    pub fn new(cfg: &OptInterConfig, orig_vocab: u32, num_fields: usize) -> Self {
        assert!(
            cfg.subnet.len() >= 2,
            "PIN subnet needs at least [hidden, out]"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x914);
        let k = cfg.orig_dim;
        let pairs = PairIndexer::new(num_fields);
        let sub_out = *cfg.subnet.last().expect("subnet non-empty");
        let sub_cfg = MlpConfig {
            hidden: cfg.subnet[..cfg.subnet.len() - 1].to_vec(),
            output_dim: sub_out,
            ..mlp_config(cfg, 3 * k)
        };
        let pool = Pool::new(cfg.num_threads);
        let subnets: Vec<Mlp> = (0..pairs.num_pairs())
            .map(|_| {
                let mut sub = Mlp::new(&mut rng, &sub_cfg);
                sub.set_pool(&pool);
                sub
            })
            .collect();
        let top_dim = num_fields * k + pairs.num_pairs() * sub_out;
        let top = Mlp::new(&mut rng, &mlp_config(cfg, top_dim));
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, k);
        let block = MicroNets {
            subnets,
            num_fields,
            dim: k,
            sub_out,
            pair_list: pairs.iter().collect(),
            pair_x: (0..pairs.num_pairs())
                .map(|_| Matrix::zeros(0, 0))
                .collect(),
            sub_out_buf: Matrix::zeros(0, 0),
            d_out: Matrix::zeros(0, 0),
            d_x: Matrix::zeros(0, 0),
        };
        Deep::with_parts(block, emb, top, cfg, num_fields, pool)
    }
}

impl Block for MicroNets {
    /// Each pair's micro-network input `[e_i | e_j | e_i ⊙ e_j]` is kept in
    /// `self.pair_x[p]` for the backward pass.
    fn forward(&mut self, x: &Inputs<'_>, input: &mut Matrix) {
        let m = self.num_fields;
        let k = self.dim;
        let b = x.eo.rows();
        input.reset(b, m * k + self.pair_list.len() * self.sub_out);
        input.copy_block_from(x.eo, 0);
        for (p, &(i, j)) in self.pair_list.iter().enumerate() {
            let px = &mut self.pair_x[p];
            px.reset(b, 3 * k);
            for r in 0..b {
                let row = x.eo.row(r);
                let dst = px.row_mut(r);
                for c in 0..k {
                    let (vi, vj) = (row[i * k + c], row[j * k + c]);
                    dst[c] = vi;
                    dst[k + c] = vj;
                    dst[2 * k + c] = vi * vj;
                }
            }
            self.subnets[p].forward_into(&self.pair_x[p], &mut self.sub_out_buf);
            input.copy_block_from(&self.sub_out_buf, m * k + p * self.sub_out);
        }
    }

    fn backward(&mut self, x: &Inputs<'_>, dinput: &Matrix, _: &Matrix, d_eo: &mut Matrix) {
        let m = self.num_fields;
        let k = self.dim;
        dinput.block_into(0, m * k, d_eo);
        for (p, &(i, j)) in self.pair_list.iter().enumerate() {
            dinput.block_into(m * k + p * self.sub_out, self.sub_out, &mut self.d_out);
            self.subnets[p].backward_into(&self.pair_x[p], &self.d_out, &mut self.d_x);
            // Split the micro-net input gradient back onto the embeddings.
            for r in 0..self.d_x.rows() {
                let row = x.eo.row(r);
                let g = self.d_x.row(r);
                let d_row = d_eo.row_mut(r);
                for c in 0..k {
                    let (vi, vj) = (row[i * k + c], row[j * k + c]);
                    d_row[i * k + c] += g[c] + g[2 * k + c] * vj;
                    d_row[j * k + c] += g[k + c] + g[2 * k + c] * vi;
                }
            }
        }
    }

    /// The micro networks, stepped after the top MLP.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for subnet in self.subnets.iter_mut() {
            subnet.visit_params(f);
        }
    }
}

impl DeepBlock for MicroNets {
    fn name(&self) -> &'static str {
        "PIN"
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Factorized,
            methods: "{f}",
            factorization_fn: "net(e_i, e_j)",
            classifier: "Deep",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_model, test_config};
    use optinter_data::Profile;

    #[test]
    fn pin_trains_and_beats_chance() {
        let bundle = Profile::Tiny.bundle_with_rows(3000, 25);
        let cfg = test_config();
        let mut model = Pin::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let r = run_model(&mut model, &bundle, &cfg);
        assert!(r.auc > 0.58, "PIN AUC {}", r.auc);
    }

    #[test]
    fn has_one_subnet_per_pair() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 26);
        let cfg = test_config();
        let pin = Pin::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        assert_eq!(pin.block().subnets.len(), bundle.data.num_pairs);
    }

    #[test]
    #[should_panic(expected = "subnet needs at least")]
    fn rejects_degenerate_subnet() {
        let cfg = OptInterConfig {
            subnet: vec![5],
            ..test_config()
        };
        let _ = Pin::new(&cfg, 100, 4);
    }
}

//! Per-pair modelling methods and full architectures.

use optinter_data::PlantedKind;

/// The modelling method chosen for one feature interaction (paper Eq. 15):
/// the search space `K = {memorize, factorize, naive}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Use the pair's cross-product embedding `e^m_(i,j)` (Eq. 4).
    Memorize,
    /// Use the Hadamard product of the original embeddings (Eq. 14).
    Factorize,
    /// Drop the interaction (the empty embedding `e^n`).
    Naive,
}

impl Method {
    /// All methods, in the paper's `[memorize, factorize, naive]` order —
    /// this is also the column order of the architecture parameters.
    pub const ALL: [Method; 3] = [Method::Memorize, Method::Factorize, Method::Naive];

    /// Column index into architecture-parameter rows.
    pub fn index(&self) -> usize {
        match self {
            Method::Memorize => 0,
            Method::Factorize => 1,
            Method::Naive => 2,
        }
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> Method {
        Method::ALL[i]
    }

    /// The method an oracle would pick for a planted pair kind.
    pub fn oracle_for(kind: PlantedKind) -> Method {
        match kind {
            PlantedKind::Memorized => Method::Memorize,
            PlantedKind::Factorized => Method::Factorize,
            PlantedKind::None => Method::Naive,
        }
    }

    /// Short display tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Method::Memorize => "M",
            Method::Factorize => "F",
            Method::Naive => "N",
        }
    }
}

/// Serializes an architecture as one [`Method::tag`] per pair, e.g. `"MFNM"`:
/// the form `search --out` writes and the serving artifact stores.
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

/// A full architecture: one [`Method`] per feature pair, in
/// [`PairIndexer`](optinter_data::PairIndexer) flat order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    methods: Vec<Method>,
}

impl Architecture {
    /// Wraps an explicit per-pair assignment.
    pub fn new(methods: Vec<Method>) -> Self {
        // lint: allow(panic-free, reason="unreachable from artifact decode: architecture_from_string rejects empty method strings before constructing")
        assert!(!methods.is_empty(), "architecture needs at least one pair");
        Self { methods }
    }

    /// The all-`method` architecture over `num_pairs` pairs —
    /// `Architecture::uniform(Method::Memorize, p)` is OptInter-M,
    /// `Architecture::uniform(Method::Factorize, p)` is OptInter-F,
    /// `Architecture::uniform(Method::Naive, p)` is FNN-like.
    pub fn uniform(method: Method, num_pairs: usize) -> Self {
        Self::new(vec![method; num_pairs])
    }

    /// The oracle architecture for a planted assignment.
    pub fn oracle(planted: &[PlantedKind]) -> Self {
        Self::new(planted.iter().map(|&k| Method::oracle_for(k)).collect())
    }

    /// Number of pairs.
    pub fn num_pairs(&self) -> usize {
        self.methods.len()
    }

    /// Method of pair `p`.
    pub fn method(&self, p: usize) -> Method {
        self.methods[p]
    }

    /// All methods in flat order.
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// `[memorize, factorize, naive]` counts — the paper's Table VI format.
    pub fn counts(&self) -> [usize; 3] {
        let mut c = [0usize; 3];
        for m in &self.methods {
            c[m.index()] += 1;
        }
        c
    }

    /// Pairs assigned a specific method.
    pub fn pairs_with(&self, method: Method) -> Vec<usize> {
        self.methods
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == method)
            .map(|(p, _)| p)
            .collect()
    }

    /// Fraction of pairs whose method matches the planted oracle.
    pub fn agreement_with(&self, planted: &[PlantedKind]) -> f64 {
        assert_eq!(
            self.methods.len(),
            planted.len(),
            "agreement: pair count mismatch"
        );
        let hits = self
            .methods
            .iter()
            .zip(planted.iter())
            .filter(|&(&m, &k)| m == Method::oracle_for(k))
            .count();
        hits as f64 / planted.len() as f64
    }

    /// Compact display like `[117,98,110]` (Table VI / VIII style).
    pub fn counts_string(&self) -> String {
        let c = self.counts();
        format!("[{},{},{}]", c[0], c[1], c[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_index_roundtrip() {
        for m in Method::ALL {
            assert_eq!(Method::from_index(m.index()), m);
        }
    }

    #[test]
    fn uniform_counts() {
        let a = Architecture::uniform(Method::Memorize, 10);
        assert_eq!(a.counts(), [10, 0, 0]);
        assert_eq!(a.counts_string(), "[10,0,0]");
    }

    #[test]
    fn oracle_maps_planted_kinds() {
        let planted = vec![
            PlantedKind::Memorized,
            PlantedKind::Factorized,
            PlantedKind::None,
        ];
        let a = Architecture::oracle(&planted);
        assert_eq!(
            a.methods(),
            &[Method::Memorize, Method::Factorize, Method::Naive]
        );
        assert_eq!(a.agreement_with(&planted), 1.0);
    }

    #[test]
    fn agreement_partial() {
        let planted = vec![PlantedKind::Memorized, PlantedKind::Factorized];
        let a = Architecture::new(vec![Method::Memorize, Method::Naive]);
        assert_eq!(a.agreement_with(&planted), 0.5);
    }

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
    fn pairs_with_filters() {
        let a = Architecture::new(vec![Method::Memorize, Method::Naive, Method::Memorize]);
        assert_eq!(a.pairs_with(Method::Memorize), vec![0, 2]);
        assert_eq!(a.pairs_with(Method::Factorize), Vec::<usize>::new());
    }
}

//! Per-profile hyper-parameters — the Table IV analogue, scaled to the
//! synthetic substrate — plus command-line options shared by all binaries.

use optinter_core::OptInterConfig;
use optinter_data::Profile;
use std::str::FromStr;

/// Hyper-parameters for a profile (Table IV, scaled), shared by OptInter
/// and the baseline zoo. `s1` and `s2` follow the paper's per-dataset
/// embedding sizes, scaled down together (Table IV's `s2`: Criteo 10,
/// Avazu 4, iPinYou 2); the network and both tables learn at one rate.
/// `threads` selects the intra-batch data-parallel worker count (1 =
/// serial); any value yields bit-identical results.
pub fn optinter_config(profile: Profile, seed: u64, threads: usize) -> OptInterConfig {
    let (orig_dim, cross_dim, lr) = match profile {
        Profile::CriteoLike | Profile::PrivateLike | Profile::GiantVocab => (16, 8, 5e-3),
        Profile::AvazuLike => (16, 4, 5e-3),
        // Rare positives: a smaller LR stabilises training (the paper
        // similarly uses a much smaller lr_o on iPinYou).
        Profile::IpinyouLike => (12, 2, 2e-3),
        Profile::Tiny => {
            return OptInterConfig {
                seed,
                num_threads: threads,
                ..OptInterConfig::test_small()
            }
        }
    };
    OptInterConfig {
        orig_dim,
        cross_dim,
        lr,
        lr_cross: lr,
        seed,
        num_threads: threads,
        ..OptInterConfig::default()
    }
}

/// Options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Dataset rows per profile (`None` = the profile default).
    pub rows: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Repeats for significance tests.
    pub repeats: usize,
    /// Quick smoke mode (6,000 rows unless `--rows` is given, at most 2
    /// repeats).
    pub quick: bool,
    /// Intra-batch data-parallel threads (1 = serial, bit-identical either
    /// way).
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            rows: None,
            seed: 42,
            repeats: 5,
            quick: false,
            threads: 1,
        }
    }
}

/// The flags [`ExpOptions::parse`] accepts, printed with a parse error.
const USAGE: &str = "\
USAGE: <binary> [--rows N] [--seed S] [--repeats R] [--threads T] [--quick]

  --rows N      dataset rows per profile (default: the profile's own)
  --seed S      master seed (default 42)
  --repeats R   repeats for significance tests (default 5)
  --threads T   intra-batch data-parallel threads (default 1)
  --quick       smoke run: 6000 rows unless --rows is given, at most 2 repeats";

impl ExpOptions {
    /// Parses the process's arguments with [`ExpOptions::parse`]. On an
    /// error, prints it and the usage to stderr and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses `--rows N`, `--seed S`, `--repeats R`, `--threads T` and
    /// `--quick` (the arguments after the program name).
    ///
    /// # Errors
    /// An unknown argument, a flag without its value, or a value that
    /// does not parse as the flag's number.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--rows" => opts.rows = Some(flag_value(flag, args.next())?),
                "--seed" => opts.seed = flag_value(flag, args.next())?,
                "--repeats" => opts.repeats = flag_value(flag, args.next())?,
                "--threads" => opts.threads = flag_value(flag, args.next())?,
                "--quick" => opts.quick = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if opts.quick {
            opts.rows.get_or_insert(6_000);
            opts.repeats = opts.repeats.min(2);
        }
        Ok(opts)
    }

    /// Rows to generate for a profile under these options.
    pub fn rows_for(&self, profile: Profile) -> usize {
        self.rows.unwrap_or_else(|| profile.default_rows())
    }

    /// Generates the bundle for a profile under these options.
    pub fn bundle(&self, profile: Profile) -> optinter_data::DatasetBundle {
        profile.bundle_with_rows(self.rows_for(profile), self.seed)
    }
}

/// `flag`'s value `value`, parsed.
fn flag_value<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_follow_paper_s2_ordering() {
        // Criteo s2 > Avazu s2 > iPinYou s2, as in Table IV.
        let c = optinter_config(Profile::CriteoLike, 0, 1).cross_dim;
        let a = optinter_config(Profile::AvazuLike, 0, 1).cross_dim;
        let i = optinter_config(Profile::IpinyouLike, 0, 1).cross_dim;
        assert!(c > a && a > i, "{c} {a} {i}");
    }

    #[test]
    fn options_default_uses_profile_rows() {
        let opts = ExpOptions::default();
        assert_eq!(opts.rows_for(Profile::Tiny), Profile::Tiny.default_rows());
    }

    #[test]
    fn every_profile_has_its_table_iv_values() {
        // (orig_dim, cross_dim, lr = lr_cross, hidden, batch_size,
        // retrain_epochs, subnet), as the zoo and OptInter read them.
        let paper = |s1, s2, lr| (s1, s2, lr, vec![64, 32], 128, 8, vec![16, 4]);
        let expected = [
            (Profile::CriteoLike, paper(16, 8, 5e-3)),
            (Profile::AvazuLike, paper(16, 4, 5e-3)),
            (Profile::IpinyouLike, paper(12, 2, 2e-3)),
            (Profile::PrivateLike, paper(16, 8, 5e-3)),
            (Profile::GiantVocab, paper(16, 8, 5e-3)),
            // `OptInterConfig::test_small`.
            (Profile::Tiny, (6, 4, 1e-2, vec![16], 64, 8, vec![8, 3])),
        ];
        for (profile, (s1, s2, lr, hidden, batch, epochs, subnet)) in expected {
            let c = optinter_config(profile, 7, 3);
            let got = (c.orig_dim, c.cross_dim, c.lr, c.hidden, c.batch_size);
            assert_eq!(got, (s1, s2, lr, hidden, batch), "{profile:?}");
            assert_eq!(c.lr_cross, lr, "{profile:?}");
            assert_eq!(c.retrain_epochs, epochs, "{profile:?}");
            assert_eq!(c.subnet, subnet, "{profile:?}");
            assert_eq!((c.grda_c, c.grda_mu), (5e-4, 0.8), "{profile:?}");
            assert_eq!((c.seed, c.num_threads), (7, 3), "{profile:?}");
        }
    }

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        ExpOptions::parse(&args)
    }

    #[test]
    fn parse_reads_every_flag() {
        let opts = parse(&["--rows", "1500", "--seed", "7", "--repeats", "1"]).unwrap();
        assert_eq!((opts.rows, opts.seed, opts.repeats), (Some(1500), 7, 1));
        assert_eq!((opts.threads, opts.quick), (1, false));
        let opts = parse(&["--threads", "2", "--quick"]).unwrap();
        assert_eq!((opts.threads, opts.quick), (2, true));
        assert_eq!((opts.rows, opts.repeats), (Some(6_000), 2));
        let opts = parse(&[]).unwrap();
        assert_eq!((opts.rows, opts.seed, opts.repeats), (None, 42, 5));
    }

    #[test]
    fn parse_rejects_what_it_cannot_read() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert_eq!(err(&["--row", "1500"]), "unknown argument `--row`");
        assert_eq!(err(&["--configs"]), "unknown argument `--configs`");
        assert_eq!(err(&["1500"]), "unknown argument `1500`");
        assert_eq!(err(&["--rows", "1.5k"]), "--rows: cannot parse `1.5k`");
        assert_eq!(err(&["--seed", "-1"]), "--seed: cannot parse `-1`");
        assert_eq!(err(&["--quick", "--threads"]), "--threads needs a value");
    }
}

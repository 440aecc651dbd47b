//! A small dependency-free argument parser: `--key value` pairs and
//! `--flag` booleans after a subcommand.

use std::collections::BTreeMap;

/// Parsed command line: subcommand plus options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// `--key value` options.
    options: BTreeMap<String, String>,
    /// bare `--flag`s.
    flags: Vec<String>,
}

/// Parse errors with an explanation for the user.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Option keys that are boolean flags (no value follows). Everything
/// else — including `--metrics <path>`, which dumps a
/// `saco-telemetry/v1` run report from `simulate` — takes a value.
/// `verify` is `saco shard`'s round-trip bitwise check.
const FLAG_KEYS: &[&str] = &["acc", "balanced", "help", "verify"];

impl Args {
    /// Parse a token stream (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut it = tokens.into_iter().peekable();
        let command = match it.next() {
            Some(c) if !c.starts_with("--") => c,
            Some(c) if c == "--help" => {
                return Ok(Args {
                    command: "help".into(),
                    ..Default::default()
                })
            }
            Some(c) => return Err(ArgError(format!("expected a subcommand, got {c:?}"))),
            None => {
                return Ok(Args {
                    command: "help".into(),
                    ..Default::default()
                })
            }
        };
        let mut args = Args {
            command,
            ..Default::default()
        };
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --option, got {tok:?}")))?
                .to_string();
            if FLAG_KEYS.contains(&key.as_str()) {
                args.flags.push(key);
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("--{key} requires a value")))?;
                if args.options.insert(key.clone(), value).is_some() {
                    return Err(ArgError(format!("--{key} given twice")));
                }
            }
        }
        Ok(args)
    }

    /// Every option and flag name given, without the `--`.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let given = self.options.keys().chain(&self.flags);
        given.map(String::as_str)
    }

    /// The options and flags given, minus the names in `drop`, as the
    /// tokens a child process re-parses into the same values.
    pub fn forward(&self, drop: &[&str]) -> Vec<String> {
        let kept = |name: &&String| !drop.contains(&name.as_str());
        let options = self.options.iter().filter(|(k, _)| kept(k));
        let options = options.flat_map(|(k, v)| [format!("--{k}"), v.clone()]);
        let flags = self.flags.iter().filter(kept).map(|f| format!("--{f}"));
        options.chain(flags).collect()
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))
    }

    /// A parsed option with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// An optional parsed option.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = Args::parse(toks("lasso --data x.svm --mu 8 --acc")).expect("parse");
        assert_eq!(a.command, "lasso");
        assert_eq!(a.get("data"), Some("x.svm"));
        assert_eq!(a.get_or::<usize>("mu", 1).expect("mu"), 8);
        assert!(a.flag("acc"));
        assert!(!a.flag("balanced"));
    }

    #[test]
    fn defaults_and_optionals() {
        let a = Args::parse(toks("svm --lambda 2.5")).expect("parse");
        assert_eq!(a.get_or::<f64>("lambda", 1.0).expect("λ"), 2.5);
        assert_eq!(a.get_or::<usize>("s", 16).expect("s"), 16);
        assert_eq!(a.get_opt::<f64>("gap-tol").expect("opt"), None);
    }

    #[test]
    fn missing_required_reports_name() {
        let a = Args::parse(toks("lasso")).expect("parse");
        let err = a.require("data").expect_err("required");
        assert!(err.0.contains("--data"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(toks("lasso --mu")).expect_err("needs value");
        assert!(err.0.contains("--mu"));
    }

    #[test]
    fn duplicate_option_rejected() {
        let err = Args::parse(toks("lasso --mu 1 --mu 2")).expect_err("dup");
        assert!(err.0.contains("twice"));
    }

    #[test]
    fn bad_number_reports_value() {
        let a = Args::parse(toks("lasso --mu abc")).expect("parse");
        let err = a.get_or::<usize>("mu", 1).expect_err("bad number");
        assert!(err.0.contains("abc"));
    }

    #[test]
    fn metrics_takes_a_path_value() {
        let a = Args::parse(toks("simulate --data x.svm --metrics out.json --acc")).expect("parse");
        assert_eq!(a.get("metrics"), Some("out.json"));
        let err = Args::parse(toks("simulate --metrics")).expect_err("needs a path");
        assert!(err.0.contains("--metrics"));
    }

    #[test]
    fn chaos_takes_a_spec_value() {
        let a = Args::parse(toks(
            "simulate --data x.svm --chaos seed=7,jitter=1e-4,fail=3@10",
        ))
        .expect("parse");
        assert_eq!(a.get("chaos"), Some("seed=7,jitter=1e-4,fail=3@10"));
        let err = Args::parse(toks("simulate --chaos")).expect_err("needs a spec");
        assert!(err.0.contains("--chaos"));
    }

    #[test]
    fn verify_is_a_bare_flag() {
        let a = Args::parse(toks("shard --data x.svm --out d --verify --shards 8")).expect("parse");
        assert!(a.flag("verify"));
        assert_eq!(a.get("shards"), Some("8"));
    }

    #[test]
    fn forward_reparses_to_the_same_options_minus_the_dropped() {
        let given = "launch --data x.svm --rel-tol 1e-3 --acc --rundir d --metrics m.json --p 2";
        let a = Args::parse(toks(given)).expect("parse");
        let fwd = a.forward(&["rundir", "metrics"]);
        let b = Args::parse([String::from("_netrank")].into_iter().chain(fwd)).expect("reparse");
        assert_eq!(b.get("rel-tol"), Some("1e-3"));
        assert_eq!((b.get("data"), b.get("p")), (Some("x.svm"), Some("2")));
        assert!(b.flag("acc"));
        assert_eq!((b.get("rundir"), b.get("metrics")), (None, None));
        assert_eq!(b.names().count(), 4);
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(Args::parse(toks("")).expect("parse").command, "help");
        assert_eq!(Args::parse(toks("--help")).expect("parse").command, "help");
    }
}

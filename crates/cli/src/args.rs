//! Minimal `--key value` argument parsing (no external dependencies).

/// Parsed command-line arguments after the subcommand.
#[derive(Debug, Clone, Default)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Wraps the raw argument list.
    pub fn new(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// The value following `--name`, parsed; `Ok(default)` when absent.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value_of(name) {
            None => Ok(default),
            Some(value) => value
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {value}")),
        }
    }

    /// The string following `--name`, if present and not another flag.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        let i = self.raw.iter().position(|a| a == &flag)?;
        match self.raw.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => None,
        }
    }

    /// Whether the bare flag `--name` appears.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// Fails on the first `--flag` whose name is not in `accepted`, a
    /// space-separated list of flag names.
    pub fn reject_unknown_flags(&self, accepted: &str) -> Result<(), String> {
        match self
            .raw
            .iter()
            .filter_map(|a| a.strip_prefix("--"))
            .find(|&name| !accepted.split_whitespace().any(|f| f == name))
        {
            Some(name) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }

    /// The first free-standing argument: not a `--flag`, and not
    /// immediately after one (that slot is the flag's value).
    pub fn positional(&self) -> Option<&str> {
        let mut after_flag = false;
        for a in &self.raw {
            if a.starts_with("--") {
                after_flag = true;
            } else if after_flag {
                after_flag = false;
            } else {
                return Some(a);
            }
        }
        None
    }

    /// Parses the `--alpha` flag: `5pi6` (default), `2pi3`, or radians.
    pub fn alpha(&self) -> Result<cbtc_geom::Alpha, String> {
        match self.value_of("alpha").unwrap_or("5pi6") {
            "5pi6" | "5π/6" => Ok(cbtc_geom::Alpha::FIVE_PI_SIXTHS),
            "2pi3" | "2π/3" => Ok(cbtc_geom::Alpha::TWO_PI_THIRDS),
            raw => {
                let radians: f64 = raw
                    .parse()
                    .map_err(|_| format!("invalid --alpha: {raw} (use 5pi6, 2pi3 or radians)"))?;
                cbtc_geom::Alpha::new(radians).map_err(|e| e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn get_with_default_and_parse() {
        let a = args(&["--nodes", "50", "--flag"]);
        assert_eq!(a.get("nodes", 100usize).unwrap(), 50);
        assert_eq!(a.get("seed", 7u64).unwrap(), 7);
        assert!(a.has("flag"));
        assert!(!a.has("nodes-x"));
        assert!(a.get::<usize>("flag", 1).is_ok()); // bare flag → default
    }

    #[test]
    fn invalid_value_is_an_error() {
        let a = args(&["--nodes", "abc"]);
        assert!(a.get("nodes", 1usize).is_err());
    }

    #[test]
    fn positional_skips_flags_and_their_values() {
        assert_eq!(args(&["trace.jsonl"]).positional(), Some("trace.jsonl"));
        assert_eq!(
            args(&["--out", "x.html", "trace.jsonl"]).positional(),
            Some("trace.jsonl")
        );
        assert_eq!(
            args(&["trace.jsonl", "--out", "x.html"]).positional(),
            Some("trace.jsonl")
        );
        assert_eq!(args(&["--out", "x.html"]).positional(), None);
        assert_eq!(args(&[]).positional(), None);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let a = args(&["--nodes", "5", "--all", "x.json"]);
        assert!(a.reject_unknown_flags("nodes all").is_ok());
        let e = a.reject_unknown_flags("nodes").unwrap_err();
        assert!(e.contains("--all"), "unexpected: {e}");
        // A negative value is a value, not a flag.
        assert!(args(&["--alpha", "-1"])
            .reject_unknown_flags("alpha")
            .is_ok());
    }

    #[test]
    fn alpha_forms() {
        assert_eq!(args(&[]).alpha().unwrap(), cbtc_geom::Alpha::FIVE_PI_SIXTHS);
        assert_eq!(
            args(&["--alpha", "2pi3"]).alpha().unwrap(),
            cbtc_geom::Alpha::TWO_PI_THIRDS
        );
        let custom = args(&["--alpha", "1.5"]).alpha().unwrap();
        assert!((custom.radians() - 1.5).abs() < 1e-12);
        assert!(args(&["--alpha", "bogus"]).alpha().is_err());
        assert!(args(&["--alpha", "-1"]).alpha().is_err());
    }
}

//! Minimal `--key value` option parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` options.
#[derive(Debug, Default)]
pub struct Options {
    values: BTreeMap<String, String>,
}

impl Options {
    /// Parse a flat list of `--key value` pairs.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        Self::parse_with_flags(argv, &[])
    }

    /// Parse `--key value` pairs where the names in `flags` are boolean
    /// switches: they take no value and read back as `true` via
    /// [`Options::flag`]. An option given twice is an error, not a
    /// silent last-one-wins.
    pub fn parse_with_flags(argv: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --option, found '{key}'"));
            };
            let value = if flags.contains(&name) {
                "true"
            } else if let Some(value) = it.next() {
                value
            } else {
                return Err(format!("--{name} requires a value"));
            };
            if values.insert(name.to_owned(), value.to_owned()).is_some() {
                return Err(format!("option --{name} given more than once"));
            }
        }
        Ok(Self { values })
    }

    /// Whether a boolean switch (see [`Options::parse_with_flags`]) was
    /// given.
    pub fn flag(&self, name: &str) -> bool {
        self.values.get(name).map(String::as_str) == Some("true")
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A numeric option with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}' as a number")),
        }
    }

    /// Reject any parsed option not in `allowed`, naming the offending
    /// flag and listing what the subcommand accepts.
    pub fn ensure_known(&self, subcommand: &str, allowed: &[&str]) -> Result<(), String> {
        for key in self.values.keys() {
            if !allowed.contains(&key.as_str()) {
                let accepted = allowed
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                return Err(format!(
                    "unknown option --{key} for 'iris {subcommand}' (accepted: {accepted})"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_pairs() {
        let o = Options::parse(&strs(&["--seed", "7", "--out", "r.json"])).unwrap();
        assert_eq!(o.required("seed").unwrap(), "7");
        assert_eq!(o.get("out"), Some("r.json"));
        assert_eq!(o.get("missing"), None);
        assert_eq!(o.num("seed", 0u64).unwrap(), 7);
        assert_eq!(o.num("dcs", 5usize).unwrap(), 5);
    }

    #[test]
    fn rejects_bare_values() {
        assert!(Options::parse(&strs(&["seed", "7"])).is_err());
    }

    #[test]
    fn rejects_a_repeated_option_or_switch() {
        let err = Options::parse(&strs(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("--seed given more than once"), "{err}");
        let twice = strs(&["--crash", "--crash"]);
        assert!(Options::parse_with_flags(&twice, &["crash"]).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(Options::parse(&strs(&["--seed"])).is_err());
    }

    #[test]
    fn rejects_unparsable_number() {
        let o = Options::parse(&strs(&["--util", "abc"])).unwrap();
        let err = o.num("util", 0.4f64).unwrap_err();
        assert!(err.contains("--util"), "{err}");
        assert!(err.contains("'abc'"), "{err}");
    }

    #[test]
    fn unknown_flag_names_itself_and_the_accepted_set() {
        let o = Options::parse(&strs(&["--bogus", "1"])).unwrap();
        let err = o.ensure_known("simulate", &["region", "util"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(err.contains("simulate"), "{err}");
        assert!(err.contains("--region"), "{err}");
        assert!(err.contains("--util"), "{err}");
        assert!(o.ensure_known("simulate", &["bogus"]).is_ok());
    }

    #[test]
    fn missing_required_is_an_error() {
        let o = Options::parse(&[]).unwrap();
        assert!(o.required("region").is_err());
    }

    #[test]
    fn flags_take_no_value() {
        let o = Options::parse_with_flags(&strs(&["--crash", "--seed", "9"]), &["crash"]).unwrap();
        assert!(o.flag("crash"));
        assert_eq!(o.num("seed", 0u64).unwrap(), 9);
        // Absent flags are false; a flag mid-argv must not swallow the
        // next option.
        assert!(!o.flag("quick"));
        let o = Options::parse_with_flags(&strs(&["--seed", "9", "--crash"]), &["crash"]).unwrap();
        assert!(o.flag("crash"));
        // Without the flag declaration the same argv is a parse error.
        assert!(Options::parse(&strs(&["--crash"])).is_err());
    }
}

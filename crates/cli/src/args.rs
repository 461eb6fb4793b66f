//! `--key value` option parsing against one row of the command table
//! (no external dependencies).

use crate::spec::{Command, Value};
use std::collections::BTreeMap;

/// One invocation's options: what argv gave, read through the
/// [`Command`] row that declares them and supplies their defaults.
#[derive(Debug)]
pub struct Options {
    row: &'static Command,
    given: BTreeMap<&'static str, String>,
    defaults: BTreeMap<&'static str, String>,
}

impl Options {
    /// Parse `--key value` pairs (and the row's valueless switches). An
    /// option the row does not declare is an error naming the accepted
    /// set; an option given twice is an error, not a silent
    /// last-one-wins.
    pub fn parse(row: &'static Command, argv: &[String]) -> Result<Self, String> {
        let mut given = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --option, found '{key}'"));
            };
            let Some(opt) = row.options().find(|o| o.name == name) else {
                let accepted: Vec<String> =
                    row.options().map(|o| format!("--{}", o.name)).collect();
                return Err(format!(
                    "unknown option --{name} for 'iris {}' (accepted: {})",
                    row.name(),
                    accepted.join(", ")
                ));
            };
            let value = match opt.value {
                Value::Switch => String::new(),
                _ => it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?
                    .clone(),
            };
            if given.insert(opt.name, value).is_some() {
                return Err(format!("option --{name} given more than once"));
            }
        }
        let defaults = (row.options())
            .filter_map(|o| Some((o.name, o.fallback()?)))
            .collect();
        Ok(Self {
            row,
            given,
            defaults,
        })
    }

    /// A handler reading an option its row does not declare is a bug in
    /// the table, not a user error.
    fn declared(&self, name: &str) {
        let declared = self.row.options().any(|o| o.name == name);
        assert!(declared, "'iris {}' declares no --{name}", self.row.name());
    }

    /// Whether `--name` was on the command line (all there is to know
    /// about a switch).
    pub fn flag(&self, name: &str) -> bool {
        self.declared(name);
        self.given.contains_key(name)
    }

    /// The option's value: what argv gave, else the row's default.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.declared(name);
        let value = self.given.get(name).or_else(|| self.defaults.get(name));
        value.map(String::as_str)
    }

    /// [`Options::get`] for an option the handler cannot do without.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// [`Options::required`], parsed as a number.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.required(name)?;
        v.parse()
            .map_err(|_| format!("--{name}: cannot parse '{v}' as a number"))
    }

    /// [`Options::num`] for an option that may have no value.
    pub fn num_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name).map(|_| self.num(name)).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Opt;
    use crate::spec::Value::{Literal, Optional, Required, Switch};

    const fn opt(name: &'static str, value: Value) -> Opt {
        Opt {
            name,
            metavar: "V",
            value,
        }
    }

    /// Parse against an `iris simulate` that declares `opts`.
    fn parse_row(opts: &'static [Opt], argv: &[&str]) -> Result<Options, String> {
        let row = Box::leak(Box::new(Command {
            path: &["simulate"],
            aliases: &[],
            mode: None,
            opts,
            telemetry: false,
            prose: "",
            run: |_| Ok(()),
        }));
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        Options::parse(row, &argv)
    }

    fn parse(argv: &[&str]) -> Result<Options, String> {
        const OPTS: &[Opt] = &[
            opt("region", Required),
            opt("seed", Literal("0")),
            opt("dcs", Literal("5")),
            opt("util", Literal("0.4")),
            opt("out", Optional),
            opt("crash", Switch),
            opt("quick", Switch),
        ];
        parse_row(OPTS, argv)
    }

    #[test]
    fn parses_pairs() {
        let o = parse(&["--seed", "7", "--out", "r.json"]).unwrap();
        assert_eq!(o.required("seed").unwrap(), "7");
        assert_eq!(o.get("out"), Some("r.json"));
        assert_eq!(o.num::<u64>("seed").unwrap(), 7);
        // Left out: the row's default, or nothing.
        assert_eq!(o.num::<usize>("dcs").unwrap(), 5);
        assert_eq!(parse(&[]).unwrap().get("out"), None);
    }

    #[test]
    #[should_panic(expected = "declares no --missing")]
    fn reading_an_option_the_row_does_not_declare_is_a_bug() {
        let _ = parse(&[]).unwrap().get("missing");
    }

    #[test]
    fn rejects_bare_values() {
        assert!(parse(&["seed", "7"]).is_err());
    }

    #[test]
    fn rejects_a_repeated_option_or_switch() {
        let err = parse(&["--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.contains("--seed given more than once"), "{err}");
        assert!(parse(&["--crash", "--crash"]).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn rejects_unparsable_number() {
        let o = parse(&["--util", "abc"]).unwrap();
        let err = o.num::<f64>("util").unwrap_err();
        assert!(err.contains("--util"), "{err}");
        assert!(err.contains("'abc'"), "{err}");
    }

    #[test]
    fn unknown_flag_names_itself_and_the_accepted_set() {
        let err = parse(&["--bogus", "1"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(err.contains("simulate"), "{err}");
        assert!(err.contains("--region"), "{err}");
        assert!(err.contains("--util"), "{err}");
        const BOGUS: &[Opt] = &[opt("bogus", Optional)];
        assert!(parse_row(BOGUS, &["--bogus", "1"]).is_ok());
    }

    #[test]
    fn missing_required_is_an_error() {
        let o = parse(&[]).unwrap();
        assert!(o.required("region").is_err());
    }

    #[test]
    fn flags_take_no_value() {
        let o = parse(&["--crash", "--seed", "9"]).unwrap();
        assert!(o.flag("crash"));
        assert_eq!(o.num::<u64>("seed").unwrap(), 9);
        // Absent flags are false; a flag mid-argv must not swallow the
        // next option.
        assert!(!o.flag("quick"));
        let o = parse(&["--seed", "9", "--crash"]).unwrap();
        assert!(o.flag("crash"));
        // Declared with a value, the same argv is a parse error.
        assert!(parse(&["--out"]).is_err());
    }
}

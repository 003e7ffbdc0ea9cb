//! Hand-rolled argument parsing (no external dependencies).

use std::collections::HashMap;
use std::fmt;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// Subcommand name (`generate`, `lock`, `attack`, …).
    pub name: String,
    /// `--flag value` pairs (flags without values map to `"true"`).
    pub flags: HashMap<String, String>,
    /// Positional arguments.
    pub positional: Vec<String>,
}

/// CLI-level errors with user-facing messages.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage (message includes the usage hint).
    Usage(String),
    /// File I/O problems.
    Io(std::io::Error),
    /// Any domain error from the library crates.
    Domain(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(m) => write!(f, "usage error: {m}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Domain(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Every `muxlink` subcommand, in help order — the canonical list.
///
/// CI greps the README's shell examples against this constant (and a
/// unit test pins the dispatcher to it), so documentation cannot drift
/// from the binary.
pub const SUBCOMMANDS: &[&str] = &[
    "generate",
    "lock",
    "attack",
    "train",
    "score",
    "suite",
    "serve",
    "client",
    "sat-attack",
    "evaluate",
    "resynth",
    "stats",
    "help",
];

/// Flags that take a value.
pub(crate) const VALUED: &[&str] = &[
    "--profile",
    "--scale",
    "--seed",
    "--gates",
    "--inputs",
    "--outputs",
    "-o",
    "--scheme",
    "--key-size",
    "--key-out",
    "--method",
    "--th",
    "--hops",
    "--threads",
    "--batch-size",
    "--save-model",
    "--model",
    "--out-dir",
    "--guess",
    "--key",
    "--original",
    "--locked",
    "--oracle",
    "--patterns",
    "--socket",
    "--tcp",
    "--cache-dir",
    "--workers",
    "--cache-entries",
    "--job",
    "--job-id",
    "--thresholds",
    "--passes",
    "--set",
    "--remap-fraction",
    "--max-iterations",
    "--emit",
];

/// Flags that take no value. `--quick` names the default profile
/// explicitly. Any flag outside this list and [`VALUED`] is a usage
/// error, so a mistyped or removed flag fails loudly instead of being
/// ignored or swallowing the next argument.
pub(crate) const BOOLEAN: &[&str] = &[
    "--quick",
    "--paper",
    "--canonicalize",
    "--timings",
    "--progress",
    "--no-wait",
    "--remap-mux",
    "--report",
];

impl Command {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on missing subcommand, unknown flag or
    /// dangling valued flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut it = args.into_iter();
        let name = it
            .next()
            .ok_or_else(|| CliError::Usage("missing subcommand (try `help`)".into()))?;
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        while let Some(arg) = it.next() {
            if arg.starts_with('-') && arg.len() > 1 {
                if VALUED.contains(&arg.as_str()) {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::Usage(format!("flag {arg} expects a value")))?;
                    flags.insert(arg, v);
                } else if BOOLEAN.contains(&arg.as_str()) {
                    flags.insert(arg, "true".to_owned());
                } else {
                    return Err(CliError::Usage(format!("unknown flag {arg} (try `help`)")));
                }
            } else {
                positional.push(arg);
            }
        }
        Ok(Self {
            name,
            flags,
            positional,
        })
    }

    /// Fetches a valued flag, with a default.
    #[must_use]
    pub fn flag_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map_or(default, String::as_str)
    }

    /// Fetches a required valued flag.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when missing.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required flag {name}")))
    }

    /// Parses a flag into any `FromStr` type.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on parse failure.
    pub fn parse_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("flag {name} has invalid value `{v}`"))),
        }
    }

    /// The single required positional argument (input file).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when absent.
    pub fn input(&self) -> Result<&str, CliError> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage("missing input file".into()))
    }

    /// Boolean flag presence.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Command {
        Command::parse(args.iter().map(|s| (*s).to_owned())).unwrap()
    }

    #[test]
    fn parses_subcommand_flags_and_positionals() {
        let c = parse(&[
            "lock",
            "--scheme",
            "dmux",
            "--key-size",
            "64",
            "in.bench",
            "-o",
            "out.bench",
        ]);
        assert_eq!(c.name, "lock");
        assert_eq!(c.flag_or("--scheme", ""), "dmux");
        assert_eq!(c.parse_flag("--key-size", 0usize).unwrap(), 64);
        assert_eq!(c.input().unwrap(), "in.bench");
        assert_eq!(c.flag_or("-o", ""), "out.bench");
    }

    #[test]
    fn boolean_flags() {
        let c = parse(&["attack", "--quick", "x.bench"]);
        assert!(c.has("--quick"));
        assert!(!c.has("--paper"));
    }

    #[test]
    fn unknown_and_removed_flags_are_usage_errors() {
        for flag in ["--layer0-rebuild", "--dh-keep", "--bogus"] {
            let e =
                Command::parse(["attack", flag, "0.5", "x.bench"].map(str::to_owned)).unwrap_err();
            match e {
                CliError::Usage(m) => assert!(m.contains(flag), "{m}"),
                other => panic!("{flag}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_value_is_usage_error() {
        let e = Command::parse(["lock".to_owned(), "--scheme".to_owned()]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn missing_subcommand_is_usage_error() {
        let e = Command::parse(Vec::<String>::new()).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn required_and_defaults() {
        let c = parse(&["generate", "--profile", "c1355"]);
        assert_eq!(c.require("--profile").unwrap(), "c1355");
        assert!(c.require("--seed").is_err());
        assert_eq!(c.parse_flag("--seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn bad_value_is_usage_error() {
        let c = parse(&["generate", "--seed", "noodles"]);
        assert!(c.parse_flag("--seed", 0u64).is_err());
    }
}

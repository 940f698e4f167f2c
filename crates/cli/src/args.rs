//! Hand-rolled flag parsing shared by every `ft` subcommand.
//!
//! The grammar is deliberately tiny: `--flag`, `--flag value`, repeated
//! `--flag value` occurrences, and bare positionals. Anything fancier
//! (grouping, `=`-joined values, abbreviations) would buy nothing here and
//! cost a dependency or a parser to maintain.

use std::str::FromStr;

/// One subcommand's argument list.
pub struct Args<'a> {
    argv: &'a [String],
}

impl<'a> Args<'a> {
    pub fn new(argv: &'a [String]) -> Self {
        Args { argv }
    }

    /// Whether the bare flag appears anywhere.
    pub fn has(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }

    /// The value following the flag's first occurrence.
    pub fn get(&self, flag: &str) -> Option<&'a str> {
        self.argv
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    /// Parses the flag's value, dying with a usage error on malformed
    /// input (a typo'd number must not silently become a default).
    pub fn get_parse<T: FromStr>(&self, flag: &str) -> Option<T> {
        let raw = self.get(flag)?;
        match raw.parse() {
            Ok(v) => Some(v),
            Err(_) => die(&format!("{flag} got unparseable value {raw:?}")),
        }
    }

    /// Every value of a repeatable flag, in order.
    pub fn get_all(&self, flag: &str) -> Vec<&'a str> {
        self.argv
            .iter()
            .enumerate()
            .filter(|(_, a)| a.as_str() == flag)
            .filter_map(|(i, _)| self.argv.get(i + 1))
            .map(String::as_str)
            .collect()
    }

    /// Arguments that are not flags and not flag values — the positional
    /// tail (e.g. checkpoint paths for `ft ckpt diff a b`).
    pub fn positionals(&self) -> Vec<&'a str> {
        let mut out = Vec::new();
        let mut skip_next = false;
        for (i, a) in self.argv.iter().enumerate() {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a.starts_with("--") {
                // A flag consumes the next token as its value unless that
                // token is itself a flag (covers bare boolean flags).
                skip_next = self
                    .argv
                    .get(i + 1)
                    .map(|n| !n.starts_with("--"))
                    .unwrap_or(false);
                continue;
            }
            out.push(a.as_str());
        }
        out
    }
}

/// The first `--flag` of `argv` that `accepted` does not name: an option
/// the subcommand would otherwise silently ignore.
pub fn unknown_flag<'a>(argv: &'a [String], accepted: &[&str]) -> Option<&'a str> {
    (argv.iter().map(String::as_str)).find(|a| a.starts_with("--") && !accepted.contains(a))
}

/// Prints a usage error and exits with the conventional usage status.
pub fn die(msg: &str) -> ! {
    eprintln!("ft: {msg}");
    std::process::exit(2);
}

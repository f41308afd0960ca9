//! A small textual query language over the variance index.
//!
//! The paper's query model is "the user expresses the impression of how
//! much things are changing in the background and object areas" (§4.2);
//! this module gives that a concrete console syntax:
//!
//! ```text
//! ba=0.5 oa=15                   # Var_q^BA and Var_q^OA
//! ba=0.5 oa=15 alpha=2 beta=2    # widen the Eqs. 7-8 tolerances
//! ba=0 oa=12 genre=comedy form=feature   # class-scoped (§4.1)
//! ba=9 oa=9 limit=5              # truncate the answer list
//! ba=9 oa=9 k=10                 # top-k nearest (ignores alpha/beta)
//! ```
//!
//! Tokens are whitespace-separated `key=value` pairs; `ba` and `oa` are
//! required, everything else optional. [`field`] reads the same token
//! shape out of the machine replies shards send the router.

use crate::catalog::{FormId, GenreId, Taxonomy, VideoMeta};
use vdb_core::index::VarianceQuery;

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The Eqs. 7–8 parameters.
    pub variance: VarianceQuery,
    /// Restrict to this genre (with `form`, per §4.1's class argument).
    pub genre: Option<GenreId>,
    /// Restrict to this form.
    pub form: Option<FormId>,
    /// Keep at most this many answers.
    pub limit: Option<usize>,
    /// Top-k mode: return the `k` nearest shots instead of the Eqs. 7–8
    /// window (α/β are ignored; genre/form filters apply *after*
    /// ranking, so fewer than `k` answers may survive them).
    pub k: Option<usize>,
}

/// Why a query string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A token was not of the form `key=value`.
    BadToken(String),
    /// An unknown key.
    UnknownKey(String),
    /// A numeric value failed to parse.
    BadNumber {
        /// The key whose value was malformed.
        key: String,
        /// The offending value text.
        value: String,
    },
    /// `genre=`/`form=` named something outside the taxonomy.
    UnknownName {
        /// `genre` or `form`.
        kind: &'static str,
        /// The name that was not found.
        name: String,
    },
    /// A required key (`ba`, `oa`) was missing.
    Missing(&'static str),
    /// A key appeared twice.
    Duplicate(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadToken(t) => write!(f, "expected key=value, got '{t}'"),
            ParseError::UnknownKey(k) => write!(
                f,
                "unknown key '{k}' (expected ba, oa, alpha, beta, genre, form, limit, k)"
            ),
            ParseError::BadNumber { key, value } => {
                write!(f, "'{key}' needs a number, got '{value}'")
            }
            ParseError::UnknownName { kind, name } => {
                write!(f, "unknown {kind} '{name}'")
            }
            ParseError::Missing(k) => write!(f, "missing required key '{k}'"),
            ParseError::Duplicate(k) => write!(f, "key '{k}' given twice"),
        }
    }
}

impl std::error::Error for ParseError {}

impl QuerySpec {
    /// Parse a query string against a taxonomy (needed to resolve
    /// genre/form names).
    pub fn parse(text: &str, taxonomy: &Taxonomy) -> Result<QuerySpec, ParseError> {
        let mut ba: Option<f64> = None;
        let mut oa: Option<f64> = None;
        let mut alpha: Option<f64> = None;
        let mut beta: Option<f64> = None;
        let mut genre: Option<GenreId> = None;
        let mut form: Option<FormId> = None;
        let mut limit: Option<usize> = None;
        let mut k: Option<usize> = None;

        for token in text.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                return Err(ParseError::BadToken(token.to_string()));
            };
            let key_lc = key.to_ascii_lowercase();
            let num = || -> Result<f64, ParseError> {
                value.parse().map_err(|_| ParseError::BadNumber {
                    key: key_lc.clone(),
                    value: value.to_string(),
                })
            };
            match key_lc.as_str() {
                "ba" => assign(&mut ba, num()?, &key_lc)?,
                "oa" => assign(&mut oa, num()?, &key_lc)?,
                "alpha" => assign(&mut alpha, num()?, &key_lc)?,
                "beta" => assign(&mut beta, num()?, &key_lc)?,
                "limit" => {
                    let v = value.parse().map_err(|_| ParseError::BadNumber {
                        key: key_lc.clone(),
                        value: value.to_string(),
                    })?;
                    assign(&mut limit, v, &key_lc)?;
                }
                "k" => {
                    let v = value.parse().map_err(|_| ParseError::BadNumber {
                        key: key_lc.clone(),
                        value: value.to_string(),
                    })?;
                    assign(&mut k, v, &key_lc)?;
                }
                "genre" => {
                    let id = taxonomy.genre(&value.to_ascii_lowercase()).ok_or(
                        ParseError::UnknownName {
                            kind: "genre",
                            name: value.to_string(),
                        },
                    )?;
                    assign(&mut genre, id, &key_lc)?;
                }
                "form" => {
                    let id = taxonomy.form(&value.to_ascii_lowercase()).ok_or(
                        ParseError::UnknownName {
                            kind: "form",
                            name: value.to_string(),
                        },
                    )?;
                    assign(&mut form, id, &key_lc)?;
                }
                _ => return Err(ParseError::UnknownKey(key.to_string())),
            }
        }

        let ba = ba.ok_or(ParseError::Missing("ba"))?;
        let oa = oa.ok_or(ParseError::Missing("oa"))?;
        let mut variance = VarianceQuery::new(ba, oa);
        if let Some(a) = alpha {
            variance.alpha = a;
        }
        if let Some(b) = beta {
            variance.beta = b;
        }
        Ok(QuerySpec {
            variance,
            genre,
            form,
            limit,
            k,
        })
    }

    /// The genre/form predicate: whether this spec keeps a video with
    /// `meta` (an absent `genre`/`form` keeps every video). The one
    /// copy every single-node and sharded query path applies.
    pub fn keeps(&self, meta: &VideoMeta) -> bool {
        self.genre.iter().all(|g| meta.genres.contains(g))
            && self.form.iter().all(|f| meta.forms.contains(f))
    }

    /// Whether the spec names a `genre` or `form`, i.e. whether
    /// [`Self::keeps`] can reject a video at all.
    pub fn filters(&self) -> bool {
        self.genre.is_some() || self.form.is_some()
    }
}

/// The value of the first `key=value` token of `text` whose key is
/// exactly `key`: the one reader of the machine replies (`xquery`,
/// `xlist`, stream open and commit) that carry such tokens.
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// [`field`], parsed; the error names the missing or malformed key.
pub(crate) fn parse_field<T: std::str::FromStr>(text: &str, key: &str) -> Result<T, String> {
    let value = field(text, key).ok_or_else(|| format!("missing {key}="))?;
    value.parse().map_err(|_| format!("bad {key}={value}"))
}

/// An `f64` a machine reply carries as its hexadecimal bit pattern, so
/// it arrives with every bit the sender computed.
pub(crate) fn parse_bits(text: &str, key: &str) -> Result<f64, String> {
    let value = field(text, key).ok_or_else(|| format!("missing {key}="))?;
    u64::from_str_radix(value, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad {key}={value}"))
}

fn assign<T>(slot: &mut Option<T>, value: T, key: &str) -> Result<(), ParseError> {
    if slot.is_some() {
        return Err(ParseError::Duplicate(key.to_string()));
    }
    *slot = Some(value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tax() -> Taxonomy {
        Taxonomy::new()
    }

    #[test]
    fn minimal_query() {
        let q = QuerySpec::parse("ba=0.5 oa=15", &tax()).unwrap();
        assert_eq!(q.variance.var_ba, 0.5);
        assert_eq!(q.variance.var_oa, 15.0);
        assert_eq!(q.variance.alpha, VarianceQuery::DEFAULT_ALPHA);
        assert_eq!(q.variance.beta, VarianceQuery::DEFAULT_BETA);
        assert_eq!(q.genre, None);
        assert_eq!(q.limit, None);
        assert_eq!(q.k, None);
    }

    #[test]
    fn topk_query() {
        let q = QuerySpec::parse("ba=9 oa=4 k=10", &tax()).unwrap();
        assert_eq!(q.k, Some(10));
        assert!(matches!(
            QuerySpec::parse("ba=1 oa=2 k=many", &tax()).unwrap_err(),
            ParseError::BadNumber { .. }
        ));
        assert!(matches!(
            QuerySpec::parse("ba=1 oa=2 k=3 k=4", &tax()).unwrap_err(),
            ParseError::Duplicate(_)
        ));
    }

    #[test]
    fn full_query() {
        let t = tax();
        let q = QuerySpec::parse(
            "ba=9 oa=4 alpha=2.5 beta=0.5 genre=comedy form=feature limit=7",
            &t,
        )
        .unwrap();
        assert_eq!(q.variance.alpha, 2.5);
        assert_eq!(q.variance.beta, 0.5);
        assert_eq!(q.genre, t.genre("comedy"));
        assert_eq!(q.form, t.form("feature"));
        assert_eq!(q.limit, Some(7));
    }

    #[test]
    fn keys_case_insensitive_order_free() {
        let a = QuerySpec::parse("BA=1 OA=2", &tax()).unwrap();
        let b = QuerySpec::parse("oa=2 ba=1", &tax()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn genre_name_case_insensitive() {
        let t = tax();
        let q = QuerySpec::parse("ba=1 oa=1 genre=Comedy", &t).unwrap();
        assert_eq!(q.genre, t.genre("comedy"));
    }

    #[test]
    fn missing_required_keys() {
        assert_eq!(
            QuerySpec::parse("oa=2", &tax()).unwrap_err(),
            ParseError::Missing("ba")
        );
        assert_eq!(
            QuerySpec::parse("ba=2", &tax()).unwrap_err(),
            ParseError::Missing("oa")
        );
        assert_eq!(
            QuerySpec::parse("", &tax()).unwrap_err(),
            ParseError::Missing("ba")
        );
    }

    #[test]
    fn error_cases() {
        let t = tax();
        assert!(matches!(
            QuerySpec::parse("ba=1 oa=2 nonsense", &t).unwrap_err(),
            ParseError::BadToken(_)
        ));
        assert!(matches!(
            QuerySpec::parse("ba=1 oa=2 wat=3", &t).unwrap_err(),
            ParseError::UnknownKey(_)
        ));
        assert!(matches!(
            QuerySpec::parse("ba=much oa=2", &t).unwrap_err(),
            ParseError::BadNumber { .. }
        ));
        assert!(matches!(
            QuerySpec::parse("ba=1 oa=2 genre=nonexistent-genre", &t).unwrap_err(),
            ParseError::UnknownName { kind: "genre", .. }
        ));
        assert!(matches!(
            QuerySpec::parse("ba=1 oa=2 ba=3", &t).unwrap_err(),
            ParseError::Duplicate(_)
        ));
        assert!(matches!(
            QuerySpec::parse("ba=1 oa=2 limit=-3", &t).unwrap_err(),
            ParseError::BadNumber { .. }
        ));
    }

    #[test]
    fn errors_display_helpfully() {
        let e = QuerySpec::parse("ba=1 oa=2 wat=3", &tax()).unwrap_err();
        assert!(e.to_string().contains("wat"));
        let e = QuerySpec::parse("ba=x oa=2", &tax()).unwrap_err();
        assert!(e.to_string().contains("needs a number"));
    }
}

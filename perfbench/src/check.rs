//! Result verification against the apps' `seq` references.

use std::collections::HashMap;

use minipy::{HKey, Value};

/// Relative tolerance for floating-point results against `seq`.
pub const REL_TOL: f64 = 1e-9;

/// What a correct call returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// π: one float.
    Scalar(f64),
    /// Word count: exact counts per word.
    Counts(HashMap<String, u64>),
    /// Jacobi solution / LU factors: every element.
    Vector(Vec<f64>),
}

/// What a call returned.
#[derive(Debug)]
pub enum Output {
    /// An interpreted call's return value.
    Value(Value),
    /// A native call's result vector.
    Vector(Vec<f64>),
}

/// `a` and `b` agree to `rel` relative to the larger magnitude (at least 1,
/// so values near zero compare absolutely).
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Whether `got` matches `want`: floats to [`REL_TOL`], word counts
/// exactly, vectors element by element.
pub fn matches(want: &Expected, got: &Output) -> bool {
    match (want, got) {
        (Expected::Scalar(w), Output::Value(v)) => {
            v.as_float().is_ok_and(|g| close(g, *w, REL_TOL))
        }
        (Expected::Counts(w), Output::Value(v)) => dict_counts(v).is_some_and(|g| &g == w),
        (Expected::Vector(w), Output::Vector(g)) => {
            w.len() == g.len() && w.iter().zip(g).all(|(a, b)| close(*a, *b, REL_TOL))
        }
        _ => false,
    }
}

/// Convert a minipy `{str: int}` dict into word counts (`None` for any
/// other shape).
pub fn dict_counts(v: &Value) -> Option<HashMap<String, u64>> {
    let Value::Dict(map) = v else { return None };
    let map = map.read();
    let mut out = HashMap::with_capacity(map.len());
    for (k, v) in map.iter() {
        let HKey::Str(s) = k else { return None };
        let n = u64::try_from(v.as_int().ok()?).ok()?;
        out.insert(s.to_string(), n);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp4rs_apps::{jacobi, pi};

    #[test]
    fn exact_results_pass() {
        let p = pi::Params { n: 1_000 };
        let want = Expected::Scalar(pi::seq(&p));
        assert!(matches(
            &want,
            &Output::Value(Value::Float(pi::native(&p, 2)))
        ));
        let j = jacobi::Params {
            n: 8,
            max_iters: 20,
            tol: 0.0,
            seed: 3,
        };
        let want = Expected::Vector(jacobi::seq(&j));
        assert!(matches(&want, &Output::Vector(jacobi::native(&j, 2))));
    }

    #[test]
    fn perturbed_results_fail() {
        let want = Expected::Scalar(std::f64::consts::PI);
        let off = std::f64::consts::PI * (1.0 + 1e-7);
        assert!(!matches(&want, &Output::Value(Value::Float(off))));
        assert!(!matches(&want, &Output::Value(Value::Int(3))));

        let mut v = vec![1.5, -2.0, 1e-3];
        let want = Expected::Vector(v.clone());
        v[2] += 1e-6;
        assert!(!matches(&want, &Output::Vector(v.clone())));
        v.pop();
        assert!(!matches(&want, &Output::Vector(v)));

        let counts: HashMap<String, u64> = [("ba".to_owned(), 2), ("ce".to_owned(), 1)].into();
        let want = Expected::Counts(counts);
        let dict = Value::dict();
        let Value::Dict(map) = &dict else {
            unreachable!()
        };
        map.write()
            .insert(minipy::HKey::Str("ba".to_owned().into()), Value::Int(2));
        map.write()
            .insert(minipy::HKey::Str("ce".to_owned().into()), Value::Int(1));
        assert!(matches(&want, &Output::Value(dict.clone())));
        map.write()
            .insert(minipy::HKey::Str("ce".to_owned().into()), Value::Int(2));
        assert!(!matches(&want, &Output::Value(dict)));
        assert!(!matches(&want, &Output::Vector(vec![])));
    }
}

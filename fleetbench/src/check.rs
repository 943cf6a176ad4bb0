//! The correctness check: every answered key is recomputed with a direct
//! sequential `gb-core` call, and every reply must equal its key's first
//! answer. It runs after the window, when the fleet no longer competes
//! for the cores.

use std::collections::HashMap;

use gb_service::proto::Algorithm;

use crate::drive::{pieces_hash, Answer, OkReply, Outcome};
use crate::gen::{Key, Req};

/// Relative tolerance between a served value and its recomputation.
pub const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// The partition a direct sequential call gives for `key` — HF for `hf`
/// and `phf` (Theorem 3: PHF yields exactly HF's partition), BA, and
/// BA-HF at the served α and θ: `(ratio, pieces sorted ascending)`.
pub fn recompute(key: &Key, alpha: f64) -> (f64, Vec<f64>) {
    let problem = key.spec.build();
    let part = match key.alg {
        Algorithm::Hf | Algorithm::Phf => gb_core::hf(problem, key.n),
        Algorithm::Ba => gb_core::ba(problem, key.n),
        Algorithm::BaHf => gb_core::ba_hf(problem, key.n, alpha, key.theta),
    };
    (part.ratio(), part.sorted_weights())
}

/// Checks one key's canonical answer against its recomputation.
pub fn check_answer(
    key: &Key,
    ratio: f64,
    alpha: f64,
    pieces: Option<&[f64]>,
) -> Result<(), String> {
    let (want_ratio, want_pieces) = recompute(key, alpha);
    if !close(ratio, want_ratio) {
        return Err(format!("ratio {ratio:?} != recomputed {want_ratio:?}"));
    }
    if let Some(pieces) = pieces {
        if pieces.len() != want_pieces.len() {
            return Err(format!(
                "{} pieces != recomputed {}",
                pieces.len(),
                want_pieces.len()
            ));
        }
        if let Some(i) = (0..pieces.len()).find(|&i| !close(pieces[i], want_pieces[i])) {
            return Err(format!(
                "piece {i} = {:?} != recomputed {:?}",
                pieces[i], want_pieces[i]
            ));
        }
    }
    Ok(())
}

/// The verdict on a window's replies.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Per request: true when the reply is OK and passed every check.
    pub verified: Vec<bool>,
    /// One line per failing key or reply, with its spec.
    pub mismatches: Vec<String>,
    /// Distinct keys recomputed.
    pub keys_checked: usize,
}

/// Checks every OK reply in `outcomes` (one per `reqs` entry).
pub fn verify(keys: &[Key], reqs: &[Req], outcomes: &[Outcome]) -> Verdict {
    // The first OK reply of each key is its canonical answer; the first
    // reply that carried pieces supplies the canonical pieces.
    let mut canon: HashMap<u32, (&OkReply, Option<&[f64]>)> = HashMap::new();
    for (r, o) in reqs.iter().zip(outcomes) {
        if let Answer::Ok(ok) = &o.answer {
            let entry = canon.entry(r.key).or_insert((ok, None));
            if entry.1.is_none() {
                entry.1 = ok.pieces.as_deref();
            }
        }
    }
    let mut bad_keys: HashMap<u32, String> = HashMap::new();
    let mut order: Vec<u32> = canon.keys().copied().collect();
    order.sort_unstable();
    for &k in &order {
        let (first, pieces) = canon[&k];
        if let Err(why) = check_answer(&keys[k as usize], first.ratio, first.alpha, pieces) {
            bad_keys.insert(k, why);
        }
    }
    let mut verdict = Verdict {
        keys_checked: order.len(),
        ..Verdict::default()
    };
    for (i, (r, o)) in reqs.iter().zip(outcomes).enumerate() {
        let Answer::Ok(ok) = &o.answer else {
            verdict.verified.push(false);
            continue;
        };
        let key = &keys[r.key as usize];
        let (first, pieces) = canon[&r.key];
        let why = if let Some(why) = bad_keys.get(&r.key) {
            Some(why.clone())
        } else if ok.algorithm != key.alg || ok.n != key.n {
            Some(format!("answered {} n={}", ok.algorithm.name(), ok.n))
        } else if ok.ratio.to_bits() != first.ratio.to_bits()
            || ok.bound.to_bits() != first.bound.to_bits()
            || ok.alpha.to_bits() != first.alpha.to_bits()
        {
            Some(format!(
                "ratio/bound/alpha {:?}/{:?}/{:?} differ from the key's first answer {:?}/{:?}/{:?}",
                ok.ratio, ok.bound, ok.alpha, first.ratio, first.bound, first.alpha
            ))
        } else if r.pieces != (ok.pieces_len > 0) {
            Some(format!(
                "asked pieces={} but got {} pieces",
                r.pieces, ok.pieces_len
            ))
        } else if r.pieces && pieces.is_some_and(|p| pieces_hash(p) != ok.pieces_hash) {
            Some("pieces differ from the key's first answer".to_string())
        } else {
            None
        };
        verdict.verified.push(why.is_none());
        if let Some(why) = why {
            if verdict.mismatches.len() < 20 {
                verdict.mismatches.push(format!(
                    "request {i}: {} n={} theta={} cached={} {}: {why}",
                    key.alg.name(),
                    key.n,
                    key.theta,
                    ok.cached,
                    key.spec.to_json().encode()
                ));
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_service::spec::ProblemSpec;

    fn key(alg: Algorithm) -> Key {
        Key {
            spec: ProblemSpec::Grid {
                rows: 20,
                cols: 20,
                hotspots: 2,
                seed: 5,
            },
            alg,
            n: 64,
            theta: 1.0,
        }
    }

    #[test]
    fn accepts_the_exact_answer_and_rejects_one_altered_in_its_last_digits() {
        for alg in Algorithm::ALL {
            let k = key(alg);
            let (ratio, pieces) = recompute(&k, 0.3);
            assert!(check_answer(&k, ratio, 0.3, Some(&pieces)).is_ok());
            // Within the tolerance: accepted.
            let nudged = ratio * (1.0 + 1e-12);
            assert!(check_answer(&k, nudged, 0.3, None).is_ok());
            // The ratio as printed to 10 significant digits with its last
            // digit changed: rejected.
            let printed: f64 = format!("{ratio:.9e}").parse().unwrap();
            let altered = printed + 3.0 * 10f64.powi(printed.log10().floor() as i32 - 9);
            let err = check_answer(&k, altered, 0.3, None).unwrap_err();
            assert!(err.contains("ratio"), "{err}");
            // A single altered piece: rejected.
            let mut bad = pieces.clone();
            bad[0] *= 1.0 + 1e-7;
            assert!(check_answer(&k, ratio, 0.3, Some(&bad)).is_err());
        }
    }
}

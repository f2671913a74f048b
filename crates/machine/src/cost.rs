//! Cost vectors and the `C = α·L + β·BW + γ·F` run-time model (§2.1).

/// Per-metric critical-path counters.
///
/// Each rank carries one of these; local arithmetic adds to `f`, each sent
/// word adds to `bw`, each message adds to `l`, and a receive max-joins the
/// sender's vector into the receiver's. At the end of a run, the maximum
/// over ranks is the critical-path cost of the whole computation, per
/// metric — exactly how the paper counts `F`, `BW`, and `L`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostVector {
    /// Word-level arithmetic operations.
    pub f: u64,
    /// Words communicated.
    pub bw: u64,
    /// Messages (latency units).
    pub l: u64,
}

impl CostVector {
    /// The zero cost.
    #[must_use]
    pub fn zero() -> CostVector {
        CostVector::default()
    }

    /// Componentwise sum.
    #[must_use]
    pub fn plus(&self, other: &CostVector) -> CostVector {
        CostVector {
            f: self.f + other.f,
            bw: self.bw + other.bw,
            l: self.l + other.l,
        }
    }

    /// Componentwise max — the join rule at message receipt. Per-metric
    /// critical paths are tracked independently, matching the paper's
    /// separate `F`/`BW`/`L` accounting.
    #[must_use]
    pub fn join(&self, other: &CostVector) -> CostVector {
        CostVector {
            f: self.f.max(other.f),
            bw: self.bw.max(other.bw),
            l: self.l.max(other.l),
        }
    }

    /// Model run time `α·L + β·BW + γ·F`.
    #[must_use]
    pub fn time(&self, p: &CostParams) -> f64 {
        p.alpha * self.l as f64 + p.beta * self.bw as f64 + p.gamma * self.f as f64
    }
}

/// Machine cost parameters: `α` latency per message, `β` time per word,
/// `γ` time per arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Latency per message.
    pub alpha: f64,
    /// Transfer time per word.
    pub beta: f64,
    /// Time per word-level arithmetic operation.
    pub gamma: f64,
}

impl Default for CostParams {
    /// A supercomputer-flavoured default: messages are expensive, words
    /// cheaper, flops cheapest (`α ≫ β ≫ γ`).
    fn default() -> CostParams {
        CostParams {
            alpha: 1000.0,
            beta: 1.0,
            gamma: 0.01,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_and_join() {
        let a = CostVector { f: 10, bw: 5, l: 1 };
        let b = CostVector { f: 3, bw: 9, l: 1 };
        assert_eq!(
            a.plus(&b),
            CostVector {
                f: 13,
                bw: 14,
                l: 2
            }
        );
        assert_eq!(a.join(&b), CostVector { f: 10, bw: 9, l: 1 });
    }

    #[test]
    fn time_model() {
        let c = CostVector {
            f: 100,
            bw: 10,
            l: 1,
        };
        let p = CostParams {
            alpha: 5.0,
            beta: 2.0,
            gamma: 0.5,
        };
        assert_eq!(c.time(&p), 5.0 + 20.0 + 50.0);
    }
}

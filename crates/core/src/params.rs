//! Protocol constants (paper §3).
//!
//! Everything is derived from four inputs: the membership size `n`, the
//! fault budget `f`, the network delivery bound `δ`, the processing bound
//! `π`, and the clock-drift bound `ρ` (in parts-per-million). The paper
//! folds drift into a single constant
//! `d ≡ (δ + π) × (1 + ρ)` — the bound on end-to-end message latency as
//! measured on *any* correct node's timer — and expresses every other
//! constant as a multiple of `d`.

use ssbyz_types::{ConfigError, Duration};

/// Parts-per-million denominator used for drift math.
pub const PPM: u64 = 1_000_000;

/// The full set of protocol constants for one deployment.
///
/// # Example
///
/// ```
/// use ssbyz_core::Params;
/// use ssbyz_types::Duration;
///
/// let p = Params::new(7, 2, Duration::from_millis(9), Duration::from_millis(1), 100)?;
/// assert_eq!(p.n(), 7);
/// // d = (9ms + 1ms) * 1.0001, Φ = 8d
/// assert_eq!(p.phi(), p.d() * 8u64);
/// assert_eq!(p.delta_agr(), p.phi() * 5u64); // (2f+1)·Φ with f = 2
/// # Ok::<(), ssbyz_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    n: usize,
    f: usize,
    d: Duration,
    rho_ppm: u32,
    phi: Duration,
    delta_agr: Duration,
    delta_0: Duration,
    delta_rmv: Duration,
    delta_v: Duration,
    delta_node: Duration,
    delta_reset: Duration,
    delta_stb: Duration,
}

impl Params {
    /// Builds the constants from raw network/clock bounds.
    ///
    /// `delta` is the network delivery bound δ, `pi` the per-message
    /// processing bound π, and `rho_ppm` the drift bound ρ expressed in
    /// parts per million (the paper suggests ρ ≈ 10⁻⁶, i.e. `1` ppm).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Resilience`] unless `n > 3f`,
    /// [`ConfigError::TooFewNodes`] if `n < 4`, and
    /// [`ConfigError::Timing`] if `δ + π` is zero or `ρ ≥ 1`.
    pub fn new(
        n: usize,
        f: usize,
        delta: Duration,
        pi: Duration,
        rho_ppm: u32,
    ) -> Result<Self, ConfigError> {
        if u64::from(rho_ppm) >= PPM {
            return Err(ConfigError::Timing("drift bound must satisfy rho < 1"));
        }
        let base = delta + pi;
        if base.is_zero() {
            return Err(ConfigError::Timing("delta + pi must be positive"));
        }
        // d = (δ + π)(1 + ρ), rounded up to keep d a true upper bound.
        let num = PPM + u64::from(rho_ppm);
        let scaled = base.scale(num, PPM);
        let d = if scaled.scale(PPM, num) < base {
            scaled + Duration::from_nanos(1)
        } else {
            scaled
        };
        Self::from_d(n, f, d, rho_ppm)
    }

    /// Builds the constants directly from the combined bound `d`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on violated resilience (`n > 3f`), fewer
    /// than 4 nodes, or a zero `d`.
    pub fn from_d(n: usize, f: usize, d: Duration, rho_ppm: u32) -> Result<Self, ConfigError> {
        if n < 4 {
            return Err(ConfigError::TooFewNodes { n, min: 4 });
        }
        if n <= 3 * f {
            return Err(ConfigError::Resilience { n, f });
        }
        if d.is_zero() {
            return Err(ConfigError::Timing("d must be positive"));
        }
        let f_u64 = u64::try_from(f).expect("f fits u64");
        // Φ = τGskew + 2d = 6d + 2d = 8d.
        let phi = d * 8u64;
        // Δ_agr = (2f + 1)·Φ.
        let delta_agr = phi * (2 * f_u64 + 1);
        // Δ0 = 13d.
        let delta_0 = d * 13u64;
        // Δ_rmv = Δ_agr + Δ0.
        let delta_rmv = delta_agr + delta_0;
        // Δ_v = 15d + 2·Δ_rmv.
        let delta_v = d * 15u64 + delta_rmv * 2u64;
        // Δ_node = Δ_v + Δ_agr.
        let delta_node = delta_v + delta_agr;
        // Δ_reset = 20d + 4·Δ_rmv.
        let delta_reset = d * 20u64 + delta_rmv * 4u64;
        // Δ_stb = 2·Δ_reset.
        let delta_stb = delta_reset * 2u64;
        Ok(Params {
            n,
            f,
            d,
            rho_ppm,
            phi,
            delta_agr,
            delta_0,
            delta_rmv,
            delta_v,
            delta_node,
            delta_reset,
            delta_stb,
        })
    }

    /// Total number of nodes `n`.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Fault budget `f` (maximum concurrent Byzantine nodes at steady state).
    #[must_use]
    pub const fn f(&self) -> usize {
        self.f
    }

    /// The combined latency/drift bound `d = (δ + π)(1 + ρ)`.
    #[must_use]
    pub const fn d(&self) -> Duration {
        self.d
    }

    /// The drift bound in parts per million.
    #[must_use]
    pub const fn rho_ppm(&self) -> u32 {
        self.rho_ppm
    }

    /// `n − f`: the strong quorum used by the `≥ n − f` tests.
    #[must_use]
    pub const fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// `n − 2f`: the weak quorum; with `n > 3f` this is at least `f + 1`,
    /// so any weak quorum contains a correct node.
    #[must_use]
    pub const fn weak_quorum(&self) -> usize {
        self.n - 2 * self.f
    }

    /// Phase length `Φ = τGskew + 2d = 8d`.
    #[must_use]
    pub const fn phi(&self) -> Duration {
        self.phi
    }

    /// The anchor-skew bound `τGskew = 6d` ([IA-3A]).
    #[must_use]
    pub fn tau_g_skew(&self) -> Duration {
        self.d * 6u64
    }

    /// `Δ_agr = (2f + 1)·Φ`: upper bound on running the agreement.
    #[must_use]
    pub const fn delta_agr(&self) -> Duration {
        self.delta_agr
    }

    /// `Δ0 = 13d`: minimal spacing between initiations by one General.
    #[must_use]
    pub const fn delta_0(&self) -> Duration {
        self.delta_0
    }

    /// `Δ_rmv = Δ_agr + Δ0`: decay horizon for old values and messages.
    #[must_use]
    pub const fn delta_rmv(&self) -> Duration {
        self.delta_rmv
    }

    /// `Δ_v = 15d + 2·Δ_rmv`: minimal spacing between initiations with the
    /// *same* value.
    #[must_use]
    pub const fn delta_v(&self) -> Duration {
        self.delta_v
    }

    /// `Δ_node = Δ_v + Δ_agr`: continuous non-faulty time after which a
    /// recovering node counts as correct.
    #[must_use]
    pub const fn delta_node(&self) -> Duration {
        self.delta_node
    }

    /// `Δ_reset = 20d + 4·Δ_rmv`: the General's back-off after it notices a
    /// failed initiation (criterion ``[IG3]``).
    #[must_use]
    pub const fn delta_reset(&self) -> Duration {
        self.delta_reset
    }

    /// `Δ_stb = 2·Δ_reset`: stabilization time of the system.
    #[must_use]
    pub const fn delta_stb(&self) -> Duration {
        self.delta_stb
    }

    /// Decay horizon of the `msgd-broadcast` primitive: `(2f + 3)·Φ`.
    #[must_use]
    pub fn msgd_horizon(&self) -> Duration {
        self.phi * (2 * self.f as u64 + 3)
    }

    /// Decay horizon of the agreement procedure: `(2f + 1)·Φ + 3d`.
    #[must_use]
    pub fn agreement_horizon(&self) -> Duration {
        self.delta_agr + self.d * 3u64
    }

    /// Expiry of the `last(G)` guard: `Δ0 − 6d` (Fig. 2 cleanup).
    #[must_use]
    pub fn last_g_expiry(&self) -> Duration {
        self.delta_0 - self.d * 6u64
    }

    /// Expiry of the `last(G, m)` guard: `2·Δ_rmv + 9d` (Fig. 2 cleanup).
    #[must_use]
    pub fn last_gm_expiry(&self) -> Duration {
        self.delta_rmv * 2u64 + self.d * 9u64
    }

    /// The maximum `msgd-broadcast` round number a node will entertain:
    /// deciders at round `r ≤ f` relay with round `r + 1`, so `f + 1` caps
    /// every legitimate round.
    #[must_use]
    pub const fn max_round(&self) -> u32 {
        self.f as u32 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: usize, f: usize) -> Params {
        Params::from_d(n, f, Duration::from_millis(10), 100).unwrap()
    }

    #[test]
    fn resilience_enforced() {
        assert!(matches!(
            Params::from_d(6, 2, Duration::from_millis(1), 0),
            Err(ConfigError::Resilience { n: 6, f: 2 })
        ));
        assert!(Params::from_d(7, 2, Duration::from_millis(1), 0).is_ok());
    }

    #[test]
    fn too_few_nodes_rejected() {
        assert!(matches!(
            Params::from_d(3, 0, Duration::from_millis(1), 0),
            Err(ConfigError::TooFewNodes { .. })
        ));
    }

    #[test]
    fn zero_d_rejected() {
        assert!(matches!(
            Params::from_d(4, 1, Duration::ZERO, 0),
            Err(ConfigError::Timing(_))
        ));
        assert!(matches!(
            Params::new(4, 1, Duration::ZERO, Duration::ZERO, 0),
            Err(ConfigError::Timing(_))
        ));
    }

    #[test]
    fn huge_rho_rejected() {
        assert!(matches!(
            Params::new(4, 1, Duration::from_millis(1), Duration::ZERO, 1_000_000),
            Err(ConfigError::Timing(_))
        ));
    }

    #[test]
    fn d_includes_drift() {
        // δ + π = 10ms, ρ = 100 ppm → d = 10ms * 1.0001 = 10.001 ms.
        let p = Params::new(
            4,
            1,
            Duration::from_millis(9),
            Duration::from_millis(1),
            100,
        )
        .unwrap();
        assert_eq!(p.d(), Duration::from_micros(10_001));
    }

    #[test]
    fn d_rounds_up() {
        // 3ns * 1.000001 = 3.000003ns → must round up to 4ns to stay an
        // upper bound.
        let p = Params::new(4, 1, Duration::from_nanos(3), Duration::ZERO, 1).unwrap();
        assert_eq!(p.d(), Duration::from_nanos(4));
    }

    #[test]
    fn derived_constants_follow_paper() {
        let params = p(7, 2);
        let d = params.d();
        assert_eq!(params.phi(), d * 8u64);
        assert_eq!(params.tau_g_skew(), d * 6u64);
        assert_eq!(params.delta_agr(), params.phi() * 5u64); // (2·2+1)Φ
        assert_eq!(params.delta_0(), d * 13u64);
        assert_eq!(params.delta_rmv(), params.delta_agr() + params.delta_0());
        assert_eq!(params.delta_v(), d * 15u64 + params.delta_rmv() * 2u64);
        assert_eq!(params.delta_node(), params.delta_v() + params.delta_agr());
        assert_eq!(params.delta_reset(), d * 20u64 + params.delta_rmv() * 4u64);
        assert_eq!(params.delta_stb(), params.delta_reset() * 2u64);
        assert_eq!(params.msgd_horizon(), params.phi() * 7u64);
        assert_eq!(params.agreement_horizon(), params.delta_agr() + d * 3u64);
    }

    #[test]
    fn quorums() {
        let params = p(10, 3);
        assert_eq!(params.quorum(), 7);
        assert_eq!(params.weak_quorum(), 4);
        assert!(params.weak_quorum() > params.f());
        assert_eq!(params.max_round(), 4);
    }

    #[test]
    fn quorum_contains_correct_node() {
        // For every legal (n, f): n − 2f ≥ f + 1.
        for n in 4..40 {
            let f = (n - 1) / 3;
            let params = Params::from_d(n, f, Duration::from_millis(1), 0).unwrap();
            assert!(params.weak_quorum() > f, "n={n}, f={f}");
        }
    }
}

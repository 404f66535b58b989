//! Analytic queueing-theory validation of the simulator.
//!
//! A discrete-event simulator is only as trustworthy as its agreement with
//! known theory. Under constant load, a single PSAP with `c` trunks,
//! Poisson arrivals (rate λ), and exponential-ish service (rate μ) is
//! approximately an M/M/c queue, for which the Erlang C formula gives the
//! probability of waiting and the mean wait. This module implements
//! Erlang B/C and the M/M/c mean-wait formula; the tests drive the
//! simulator under matching assumptions and check agreement — the
//! validation experiment the paper's §3.1 ("analyzing and comparing
//! simulation output with real-world data") needs before any real data
//! exists.

/// Erlang B blocking probability for offered load `a` Erlangs and `c`
/// servers, via the numerically stable recurrence.
pub fn erlang_b(a: f64, c: usize) -> f64 {
    assert!(a >= 0.0);
    let mut b = 1.0f64;
    for k in 1..=c {
        b = a * b / (k as f64 + a * b);
    }
    b
}

/// Erlang C probability that an arrival must wait (M/M/c). Returns 1.0
/// when the system is unstable (a ≥ c).
pub fn erlang_c(a: f64, c: usize) -> f64 {
    assert!(c > 0);
    if a >= c as f64 {
        return 1.0;
    }
    let b = erlang_b(a, c);
    let rho = a / c as f64;
    b / (1.0 - rho + rho * b)
}

/// Mean waiting time in an M/M/c queue with arrival rate `lambda`,
/// per-server service rate `mu`, `c` servers. `None` when unstable.
pub fn mmc_mean_wait(lambda: f64, mu: f64, c: usize) -> Option<f64> {
    assert!(lambda > 0.0 && mu > 0.0 && c > 0);
    let a = lambda / mu;
    if a >= c as f64 {
        return None;
    }
    let pw = erlang_c(a, c);
    Some(pw / (c as f64 * mu - lambda))
}

/// Server utilization ρ = λ/(cμ).
pub fn utilization(lambda: f64, mu: f64, c: usize) -> f64 {
    lambda / (c as f64 * mu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::external::ExternalTimeline;
    use crate::graph::Topology;
    use crate::sim::{run, SimConfig};

    #[test]
    fn erlang_b_known_values() {
        // Classic traffic-table values: a=2 Erlangs, c=5 → B ≈ 0.0367.
        assert!((erlang_b(2.0, 5) - 0.0367).abs() < 0.001);
        // a=10, c=10 → B ≈ 0.2146.
        assert!((erlang_b(10.0, 10) - 0.2146).abs() < 0.001);
        // No load → no blocking; no servers handled by c=0 loop → B=1.
        assert_eq!(erlang_b(0.0, 5), 0.0);
        assert_eq!(erlang_b(3.0, 0), 1.0);
    }

    #[test]
    fn erlang_c_known_values_and_bounds() {
        // a=2, c=3 → C ≈ 0.4444.
        assert!((erlang_c(2.0, 3) - 0.4444).abs() < 0.001);
        // C ≥ B always; C in [0,1].
        for &(a, c) in &[(0.5, 2usize), (2.0, 4), (5.0, 8)] {
            let b = erlang_b(a, c);
            let cc = erlang_c(a, c);
            assert!(cc >= b);
            assert!((0.0..=1.0).contains(&cc));
        }
        // Unstable system always waits.
        assert_eq!(erlang_c(5.0, 4), 1.0);
    }

    #[test]
    fn mean_wait_increases_with_load_and_diverges_at_saturation() {
        let w1 = mmc_mean_wait(1.0, 1.0, 4).unwrap();
        let w2 = mmc_mean_wait(3.0, 1.0, 4).unwrap();
        let w3 = mmc_mean_wait(3.9, 1.0, 4).unwrap();
        assert!(w1 < w2 && w2 < w3);
        assert!(mmc_mean_wait(4.0, 1.0, 4).is_none());
        assert!((utilization(2.0, 1.0, 4) - 0.5).abs() < 1e-12);
    }

    /// The headline validation: the simulator's mean answer delay under
    /// quiet constant load tracks the Erlang C prediction.
    #[test]
    fn simulator_agrees_with_erlang_c() {
        // Single PSAP, 4 trunks. Arrival rate λ = 2/min; handling ≈
        // log-normal with mean exp(μ+σ²/2). Configure near-deterministic
        // service (σ→0) so the M/M/c approximation is as fair as possible,
        // and effectively-infinite patience so no abandonment censors waits.
        let handling_mean_ms = 90_000.0f64;
        let mut config = SimConfig::with_defaults(
            Topology::single_city(),
            ExternalTimeline::quiet(),
            40 * 3_600_000, // 40 simulated hours for tight statistics
            12345,
        );
        config.handling_lognormal = (handling_mean_ms.ln(), 0.05);
        config.mean_patience_ms = 1e12;
        let output = run(&config, &itrust_obs::ObsCtx::null());

        let lambda_per_ms = 2.0 / 60_000.0;
        let mu_per_ms = 1.0 / handling_mean_ms;
        let predicted_wait =
            mmc_mean_wait(lambda_per_ms, mu_per_ms, 4).expect("stable") ;
        let measured_wait = output.stats.mean_answer_delay_ms;
        // M/D/c waits are shorter than M/M/c (deterministic service halves
        // the queueing delay asymptotically), so expect measured between
        // 0.3× and 1.2× of the M/M/c prediction — and far from zero-queue.
        assert!(
            measured_wait > 0.2 * predicted_wait && measured_wait < 1.2 * predicted_wait,
            "measured {measured_wait:.0}ms vs Erlang-C {predicted_wait:.0}ms"
        );
        // Utilization sanity: ρ = λ/(cμ) = 0.75 → busy but stable; the
        // simulator should answer nearly everything.
        assert!(output.stats.abandonment_rate() < 0.01);
    }

    /// Waiting probability also tracks Erlang C.
    #[test]
    fn waiting_fraction_tracks_erlang_c() {
        let handling_mean_ms = 90_000.0f64;
        let mut config = SimConfig::with_defaults(
            Topology::single_city(),
            ExternalTimeline::quiet(),
            40 * 3_600_000,
            777,
        );
        config.handling_lognormal = (handling_mean_ms.ln(), 0.05);
        config.mean_patience_ms = 1e12;
        let output = run(&config, &itrust_obs::ObsCtx::null());
        let waited = output
            .calls
            .iter()
            .filter(|c| c.answer_delay_ms().is_some_and(|d| d > 0))
            .count();
        let answered = output.calls.iter().filter(|c| c.answered_ms.is_some()).count();
        let measured_pw = waited as f64 / answered as f64;
        let a = (2.0 / 60_000.0) / (1.0 / handling_mean_ms);
        let predicted_pw = erlang_c(a, 4);
        // Deterministic-ish service lowers P(wait) slightly vs M/M/c.
        assert!(
            (measured_pw - predicted_pw).abs() < 0.15,
            "measured P(wait) {measured_pw:.3} vs Erlang-C {predicted_pw:.3}"
        );
    }
}

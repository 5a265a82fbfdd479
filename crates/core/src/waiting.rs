//! Waiting times at the network channels and at the source queue
//! (Eqs. 12-16).
//!
//! Both are M/G/1 queues whose service time is approximated by the mean
//! network latency `S̄`, with the service-time variance approximated as
//! `(S̄ − M)²` (the minimum possible service time of a channel is the message
//! length `M`).  The source queue sees the generation rate divided by the
//! number of virtual channels, `λ_g / V`, because a newly generated message
//! can be assigned to any of the `V` injection virtual channels.
//!
//! **Topology split:** fully topology-agnostic — the queues only see rates
//! and service times; which network produced them never enters Eqs. 12-16.
//! [`crate::SpectrumModel`] calls these functions for every topology.

use star_queueing::mg1::mg1_waiting_time_min_service;

/// Mean waiting time `w̄` a blocked message spends waiting to acquire a
/// virtual channel at a network channel (Eq. 15).
///
/// Returns `f64::INFINITY` when the channel is saturated (`λ_c · S̄ ≥ 1`).
#[must_use]
pub fn channel_waiting_time(channel_rate: f64, mean_service: f64, message_length: usize) -> f64 {
    // The approximation can momentarily produce S̄ < M during the fixed-point
    // iteration warm-up; clamp the minimum service time to keep the variance
    // approximation well defined.
    let min_service = (message_length as f64).min(mean_service);
    mg1_waiting_time_min_service(channel_rate, mean_service, min_service)
}

/// Mean waiting time `W_s` a message spends in the source queue before
/// entering the network (Eq. 16).
///
/// Returns `f64::INFINITY` when the injection queue is saturated.
#[must_use]
pub fn source_waiting_time(
    generation_rate: f64,
    virtual_channels: usize,
    mean_service: f64,
    message_length: usize,
) -> f64 {
    assert!(virtual_channels >= 1, "need at least one virtual channel");
    let arrival = generation_rate / virtual_channels as f64;
    let min_service = (message_length as f64).min(mean_service);
    mg1_waiting_time_min_service(arrival, mean_service, min_service)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_waits_are_zero() {
        assert_eq!(channel_waiting_time(0.0, 40.0, 32), 0.0);
        assert_eq!(source_waiting_time(0.0, 6, 40.0, 32), 0.0);
    }

    #[test]
    fn channel_wait_grows_with_rate_and_service() {
        let w1 = channel_waiting_time(0.002, 40.0, 32);
        let w2 = channel_waiting_time(0.004, 40.0, 32);
        let w3 = channel_waiting_time(0.004, 60.0, 32);
        assert!(w2 > w1);
        assert!(w3 > w2);
    }

    #[test]
    fn source_wait_shrinks_with_more_virtual_channels() {
        let w6 = source_waiting_time(0.01, 6, 50.0, 32);
        let w12 = source_waiting_time(0.01, 12, 50.0, 32);
        assert!(w12 < w6);
        assert!(w12 > 0.0);
    }

    #[test]
    fn saturation_returns_infinity() {
        assert!(channel_waiting_time(0.05, 40.0, 32).is_infinite());
        assert!(source_waiting_time(0.2, 4, 40.0, 32).is_infinite());
    }

    #[test]
    fn clamped_minimum_service_keeps_wait_finite_during_warm_up() {
        // During the first fixed-point iterations S̄ can be initialised below
        // M; the clamp prevents a panic and yields the M/D/1 form.
        let w = channel_waiting_time(0.004, 20.0, 32);
        assert!(w.is_finite());
        assert!(w >= 0.0);
    }

    #[test]
    fn source_wait_below_channel_wait_at_same_rate() {
        // The source queue sees λ_g / V, so for the same service time it waits
        // less than a network channel seeing the full λ_c ≈ λ_g·d̄/(n−1).
        let s = 70.0;
        let channel = channel_waiting_time(0.01 * 3.77 / 4.0, s, 32);
        let source = source_waiting_time(0.01, 6, s, 32);
        assert!(source < channel);
    }
}

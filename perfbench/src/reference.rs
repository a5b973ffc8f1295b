//! Stored references the output checks compare against.
//!
//! Regenerate with `--calibrate` (one workload at a time) after a change
//! that is meant to alter decoding results; the values below were printed
//! by the tree matcher.  The check sets use [`CHECK_SEED`] whatever the
//! run's `--seed`, so their matching-weight sums are fixed numbers.  The
//! failure references are `(failures, trials)` over [`CALIBRATION_SEED`]'s
//! streams; a run's own count must agree with them within Wilson intervals.

/// Seed of every fixed check set.
pub const CHECK_SEED: u64 = 0x5EED_C4EC;
/// Seed of the failure-rate calibration runs.
pub const CALIBRATION_SEED: u64 = 0xCA11_B4A7;

/// `packed_d3`: 64-lane groups in the matching-weight check set.
pub const PACKED_CHECK_GROUPS: u64 = 64;
/// `packed_d3`: summed minimum matching weight of the check set's eventful lanes.
pub const PACKED_CHECK_WEIGHT: f64 = 17633.837770739654;
/// `packed_d3`: groups in the failure-rate calibration.
pub const PACKED_CALIBRATION_GROUPS: u64 = 500_000;
/// `packed_d3`: logical failures over shots.
pub const PACKED_FAILURES: (u64, u64) = (1145608, 32000000);

/// `burst_rollback_d11`: windows in the matching-weight check set.
pub const BURST_CHECK_WINDOWS: u64 = 48;
/// `burst_rollback_d11`: summed minimum matching weight of both passes.
pub const BURST_CHECK_WEIGHT: f64 = 28335.060726750184;
/// `burst_rollback_d11`: windows in the failure-rate calibration.
pub const BURST_CALIBRATION_WINDOWS: u64 = 20_000;
/// `burst_rollback_d11`: logical failures over windows.
pub const BURST_FAILURES: (u64, u64) = (93, 20000);

/// `service_mixed`: windows per tenant in the matching-weight check set.
pub const SERVICE_CHECK_WINDOWS: u64 = 64;
/// `service_mixed`: summed minimum matching weight over all tenants.
pub const SERVICE_CHECK_WEIGHT: f64 = 15255.304504855976;
/// `service_mixed`: windows per tenant in the failure-rate calibration.
pub const SERVICE_CALIBRATION_WINDOWS: u64 = 50_000;
/// `service_mixed`: logical failures over windows, all tenants together.
pub const SERVICE_FAILURES: (u64, u64) = (380, 200000);

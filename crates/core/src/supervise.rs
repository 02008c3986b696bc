//! Shared supervision helpers: the service scheduler, the shard workers
//! and the store's compaction all catch panics, surface them as
//! [`crate::PandaError::BackendPanicked`] and (the first two) restart
//! after the same bounded exponential back-off.

use std::time::Duration;

/// First restart delay after a panic; doubles per consecutive panic up
/// to [`RESTART_BACKOFF_MAX`].
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Upper bound on the restart back-off.
const RESTART_BACKOFF_MAX: Duration = Duration::from_millis(250);

/// Best-effort human-readable payload of a caught panic.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Delay before restarting after the `consecutive`-th panic in a row
/// (5 ms doubling to a 250 ms ceiling); bumps the count.
pub fn restart_backoff(consecutive: &mut u32) -> Duration {
    let backoff = RESTART_BACKOFF_BASE
        .saturating_mul(1u32 << (*consecutive).min(16))
        .min(RESTART_BACKOFF_MAX);
    *consecutive = consecutive.saturating_add(1);
    backoff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_ceiling() {
        let mut n = 0;
        let delays: Vec<u64> = (0..8)
            .map(|_| restart_backoff(&mut n).as_millis() as u64)
            .collect();
        assert_eq!(delays, [5, 10, 20, 40, 80, 160, 250, 250]);
        let mut huge = u32::MAX;
        assert_eq!(restart_backoff(&mut huge), RESTART_BACKOFF_MAX);
        assert_eq!(huge, u32::MAX);
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "static");
        let caught = std::panic::catch_unwind(|| panic!("{}", 7)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "7");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }
}

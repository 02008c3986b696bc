//! Shared supervision helper: the service scheduler (per flush), the
//! sharded engine (per shard answer) and the store's compaction each
//! catch a panic where it happens and surface it at once as
//! [`crate::PandaError::BackendPanicked`] carrying the root-cause
//! message, and the thread that caught the panic goes on to its next
//! unit of work.

/// Best-effort human-readable payload of a caught panic.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;

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

//! Panic-isolated execution of detection units.
//!
//! Each unit (one unique statement's intra-query rules, one inter-query
//! rule, one table's data analysis, one custom rule) executes under
//! `catch_unwind(AssertUnwindSafe(...))`, so one panicking unit yields an
//! [`UnitPanic`] for that unit alone — every other unit's result is
//! unaffected and the merge stays deterministic.

/// A unit whose execution panicked: the payload message, for the
/// `RuleFailed` diagnostic the caller emits.
#[derive(Debug, Clone)]
pub(crate) struct UnitPanic {
    /// Panic payload rendered as text (`&str`/`String` payloads pass
    /// through; anything else becomes a placeholder).
    pub message: String,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one unit under the panic guard.
pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, UnitPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|p| UnitPanic { message: panic_message(p.as_ref()) })
}

/// Run `f(0..n)` in unit order, each call under the panic guard. A
/// panicking unit surfaces as `Err(UnitPanic)` at its slot; all other
/// slots are unaffected.
pub(crate) fn run_units<T>(n: usize, f: impl Fn(usize) -> T) -> Vec<Result<T, UnitPanic>> {
    (0..n).map(|i| guarded(|| f(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_results<T>(run: Vec<Result<T, UnitPanic>>) -> Vec<T> {
        run.into_iter().map(|r| r.expect("unit must not panic")).collect()
    }

    #[test]
    fn results_come_back_in_unit_order() {
        let run = run_units(10, |i| i * 3);
        assert_eq!(ok_results(run), (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(run_units(0, |i| i).is_empty());
        assert_eq!(ok_results(run_units(1, |i| i + 100)), vec![100]);
    }

    #[test]
    fn panicking_unit_is_isolated() {
        // Quiet the default hook while panics are expected.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = run_units(8, |i| {
            if i == 3 {
                panic!("injected fault at unit {i}");
            }
            i * 2
        });
        std::panic::set_hook(prev);
        assert_eq!(run.len(), 8);
        for (i, r) in run.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().expect_err("unit 3 must fail");
                assert!(e.message.contains("injected fault"), "{}", e.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2, "unit {i}");
            }
        }
    }
}

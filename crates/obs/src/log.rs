//! Leveled logging to stderr, controlled by the `CF_LOG` environment
//! variable (`off|error|warn|info|debug|trace`) or programmatically via
//! [`set_level`] (the CLI's `--log-level`/`--quiet` route here).
//!
//! Use the [`crate::error!`]..[`crate::trace!`] macros: they check the
//! level before formatting, so disabled log lines cost one atomic load.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Log verbosity, ordered from silent to chattiest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Off = 0,
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

/// Every level with its name, in `repr` order.
const LEVELS: [(Level, &str); 6] = [
    (Level::Off, "off"),
    (Level::Error, "error"),
    (Level::Warn, "warn"),
    (Level::Info, "info"),
    (Level::Debug, "debug"),
    (Level::Trace, "trace"),
];

impl Level {
    /// Parses a level name (case-insensitive; `none` and `warning` are
    /// aliases).
    pub fn parse(s: &str) -> Option<Level> {
        let s = s.to_ascii_lowercase();
        let s = match s.as_str() {
            "none" => "off",
            "warning" => "warn",
            other => other,
        };
        LEVELS.iter().find(|(_, name)| *name == s).map(|&(l, _)| l)
    }
}

/// 255 = "not yet initialised; read CF_LOG on first use".
const UNSET: u8 = 255;

static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
static ENV_LEVEL: OnceLock<Level> = OnceLock::new();

/// The current level (defaults to `CF_LOG`, else `warn`).
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        UNSET => *ENV_LEVEL.get_or_init(|| {
            std::env::var("CF_LOG")
                .ok()
                .and_then(|v| Level::parse(&v))
                .unwrap_or(Level::Warn)
        }),
        n => LEVELS[usize::from(n).min(5)].0,
    }
}

/// Overrides the level (takes precedence over `CF_LOG`).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether records at `l` are currently emitted.
pub fn enabled(l: Level) -> bool {
    l != Level::Off && l <= level()
}

/// Writes one record to stderr. Callers should gate on [`enabled`]
/// first (the macros do).
pub fn write_line(l: Level, msg: &str) {
    eprintln!("[{}] {}", LEVELS[l as usize].1, msg);
}

/// Logs at `$level` if it is enabled; the shared body of the level
/// macros.
#[doc(hidden)]
#[macro_export]
macro_rules! log_at {
    ($level:ident, $($t:tt)*) => {
        if $crate::log::enabled($crate::log::Level::$level) {
            $crate::log::write_line($crate::log::Level::$level, &format!($($t)*));
        }
    };
}

/// Logs at error level.
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { $crate::log_at!(Error, $($t)*) };
}

/// Logs at warn level.
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::log_at!(Warn, $($t)*) };
}

/// Logs at info level.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::log_at!(Info, $($t)*) };
}

/// Logs at debug level.
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::log_at!(Debug, $($t)*) };
}

/// Logs at trace level.
#[macro_export]
macro_rules! trace {
    ($($t:tt)*) => { $crate::log_at!(Trace, $($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_levels() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn enabled_respects_ordering() {
        set_level(Level::Info);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Off);
        assert!(!enabled(Level::Error));
        set_level(Level::Warn);
    }
}

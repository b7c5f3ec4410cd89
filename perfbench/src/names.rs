//! The naming rules every metric and workload name must follow.

/// A metric or workload name: 1–64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

//! `loc <file.rs>...`: prints the production lines of the given Rust
//! sources, each file counted up to its first column-0 `#[cfg(test)]`,
//! the line that opens its inline tests. CI holds the count for
//! `crates/{core,workloads,service}/src/*.rs` at or under
//! `tests/golden/loc_core_workloads_service.txt`.

#![forbid(unsafe_code)]

/// The lines of `src` before its first line that starts with
/// `#[cfg(test)]`; every line when it has none.
fn production_lines(src: &str) -> usize {
    src.lines().take_while(|line| !line.starts_with("#[cfg(test)]")).count()
}

fn main() {
    let read = |path: String| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let total: usize = std::env::args().skip(1).map(|path| production_lines(&read(path))).sum();
    println!("{total}");
}

#[cfg(test)]
mod tests {
    use super::production_lines;

    #[test]
    fn counts_up_to_the_first_column_zero_test_gate() {
        let src = "fn a() {}\n    #[cfg(test)]\nfn b() {}\n\n#[cfg(test)]\nmod tests {}\n#[cfg(test)]\n";
        assert_eq!(production_lines(src), 4, "an indented gate is production code");
        assert_eq!(production_lines("fn a() {}\nfn b() {}\n"), 2, "no gate: every line");
        assert_eq!(production_lines("fn a() {}\nfn b() {}"), 2, "a last line without a newline counts");
        assert_eq!(production_lines("#[cfg(test)]\nmod tests {}\n"), 0);
    }
}

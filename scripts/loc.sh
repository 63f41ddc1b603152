#!/bin/sh
# Size of the workspace, per crate: non-test Rust lines and `pub` items.
# Informational (CHANGES.md quotes it per PR so the trend is visible);
# never a gate. POSIX sh plus grep and wc only: no network, no build.
#
# "Non-test" = every line of crates/<crate>/src/**/*.rs above the file's
# first `#[cfg(test)]` (the workspace keeps unit tests in one trailing
# `mod tests`); benches/, tests/ and examples/ are not counted. A "pub
# item" is a line opening `pub fn|struct|enum|trait|type|const|static|mod`
# or `pub use` at any indent (`pub(crate)` items and fields do not count).
set -eu
case "$0" in
    */*) cd "${0%/*}/.." ;;
    *) cd .. ;;
esac

pub_re='^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use) '

printf '%-12s %8s %8s\n' crate lines pub
total_lines=0
total_pub=0
for dir in crates/*/; do
    dir="${dir%/}"
    lines=0
    pub=0
    for f in "$dir"/src/*.rs "$dir"/src/*/*.rs "$dir"/src/*/*/*.rs; do
        [ -f "$f" ] || continue
        # Line number of the first `#[cfg(test)]`, or one past the end.
        cut="$(grep -n -m1 '^[[:space:]]*#\[cfg(test)\]' "$f" || true)"
        cut="${cut%%:*}"
        [ -n "$cut" ] || cut=$(($(wc -l <"$f") + 1))
        lines=$((lines + cut - 1))
        for hit in $(grep -n -E "$pub_re" "$f" | grep -o '^[0-9]*' || true); do
            [ "$hit" -lt "$cut" ] && pub=$((pub + 1))
        done
    done
    printf '%-12s %8d %8d\n' "${dir##*/}" "$lines" "$pub"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + pub))
done
printf '%-12s %8d %8d\n' total "$total_lines" "$total_pub"

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

# Line number of file $1's first `#[cfg(test)]`, or one past its end.
test_cut() {
    cut="$(grep -n -m1 '^[[:space:]]*#\[cfg(test)\]' "$1" || true)"
    cut="${cut%%:*}"
    [ -n "$cut" ] || cut=$(($(wc -l <"$1") + 1))
}

printf '%-12s %8s %8s\n' crate lines pub
total_lines=0
total_pub=0
for dir in crates/*/; do
    dir="${dir%/}"
    lines=0
    pub=0
    for f in "$dir"/src/*.rs "$dir"/src/*/*.rs "$dir"/src/*/*/*.rs; do
        [ -f "$f" ] || continue
        test_cut "$f"
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

# Worklist for ROADMAP's "Delete what no gate distinguishes": every
# `pub fn` above its file's first `#[cfg(test)]` that nothing calls — its
# name word-matches nowhere else above that line and in no other .rs file
# under crates/, tests/ or examples/. A name shared with an unrelated
# item elsewhere hides a candidate; a listed one is reached, at most, by
# its own file's unit tests.
all_rs="$(find crates tests examples -name '*.rs' | sort)"
printf '\npub fn nothing calls:\n'
for f in $all_rs; do
    case "$f" in crates/*/src/*) ;; *) continue ;; esac
    test_cut "$f"
    grep -n -o -E '^[[:space:]]*pub fn [A-Za-z0-9_]+' "$f" | while IFS=: read -r line decl; do
        [ "$line" -lt "$cut" ] || continue
        name="${decl##* }"
        [ "$(head -n $((cut - 1)) "$f" | grep -c -w -e "$name")" -eq 1 ] || continue
        # shellcheck disable=SC2086
        others="$(grep -l -w -e "$name" $all_rs | grep -v -x -F "$f" || true)"
        [ -n "$others" ] || printf '  %s:%s %s\n' "$f" "$line" "$name"
    done
done

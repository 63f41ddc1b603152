#!/bin/sh
# Size of the workspace, per crate: non-test Rust lines and `pub` items.
# Informational (CHANGES.md quotes it per PR so the trend is visible);
# never a gate. POSIX sh plus awk, grep and wc only: no network, no build.
#
# "Non-test" = every line of crates/<crate>/src/**/*.rs except the items
# an unindented `#[cfg(test)]` annotates: the attribute, any attributes
# after it, and the item itself — one line if it ends in `;` or `}`
# (`mod reference;`, `use …;`), else through the next line that opens
# with `}` at column 0 (`mod tests { … }`, `impl X { … }`). benches/,
# tests/ and examples/ are not counted. A "pub item" is a line opening
# `pub fn|struct|enum|trait|type|const|static|mod` or `pub use` at any
# indent (`pub(crate)` items and fields do not count).
set -eu
case "$0" in
    */*) cd "${0%/*}/.." ;;
    *) cd .. ;;
esac

pub_re='^[0-9]+:[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use) '

# File $1's non-test lines, each as `NR:line`.
non_test() {
    awk '
        skip == 2 { if (/^}/) skip = 0; next }
        skip == 0 && /^#\[cfg\(test\)\]/ { skip = 1; sub(/^#\[cfg\(test\)\][[:space:]]*/, "") }
        skip == 1 {
            if ($0 == "" || /^#\[/) next
            skip = /[;}][[:space:]]*$/ ? 0 : 2
            next
        }
        { print NR ":" $0 }
    ' "$1"
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
        kept="$(non_test "$f")"
        [ -n "$kept" ] || continue
        lines=$((lines + $(printf '%s\n' "$kept" | wc -l)))
        pub=$((pub + $(printf '%s\n' "$kept" | grep -c -E "$pub_re" || true)))
    done
    printf '%-12s %8d %8d\n' "${dir##*/}" "$lines" "$pub"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + pub))
done
printf '%-12s %8d %8d\n' total "$total_lines" "$total_pub"

# Worklist for ROADMAP's "Delete what no gate distinguishes": every
# non-test `pub fn` that nothing calls — its name word-matches nowhere
# else in its file's non-test lines and in no other .rs file under
# crates/, tests/ or examples/. A name shared with an unrelated item
# elsewhere hides a candidate; a listed one is reached, at most, by its
# own file's unit tests.
all_rs="$(find crates tests examples -name '*.rs' | sort)"
printf '\npub fn nothing calls:\n'
for f in $all_rs; do
    case "$f" in crates/*/src/*) ;; *) continue ;; esac
    kept="$(non_test "$f")"
    printf '%s\n' "$kept" | grep -o -E '^[0-9]+:[[:space:]]*pub fn [A-Za-z0-9_]+' |
        while IFS=: read -r line decl; do
            name="${decl##* }"
            [ "$(printf '%s\n' "$kept" | grep -c -w -e "$name")" -eq 1 ] || continue
            # shellcheck disable=SC2086
            others="$(grep -l -w -e "$name" $all_rs | grep -v -x -F "$f" || true)"
            [ -n "$others" ] || printf '  %s:%s %s\n' "$f" "$line" "$name"
        done
done

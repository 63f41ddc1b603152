#!/bin/sh
# Size of the workspace, per crate: non-test Rust lines and `pub` items.
# Informational (CHANGES.md quotes it per PR so the trend is visible);
# never a gate. POSIX sh plus awk, grep, sed and coreutils: no network, no
# build.
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

# Worklists for ROADMAP's "Delete what no gate distinguishes", over every
# non-test `pub fn`. Naming a function in a `pub use` re-export is not a
# call, so re-exports are dropped before anything is matched.
#
# "nothing calls": its name word-matches nowhere else in its file's
# non-test lines and in no other .rs file under crates/, tests/ or
# examples/; it is reached, at most, by its own file's unit tests.
#
# "reached only from tests": not in the first list, and its name
# word-matches no non-test, non-comment line of crates/*/src/ or
# examples/ but its own declaration: only `#[cfg(test)]` items, tests/
# and doc comments reach it.
#
# A name shared with an unrelated item elsewhere hides a candidate.
#
# A third list, "pub names nothing outside the crate names", covers every
# non-test `pub` item of a library crate (perfbench, a binary, is left
# out), methods included: its name word-matches nothing outside the
# crate — no other crate's .rs file, none of its own src/bin/, no tests/
# or examples/ file — and no doc comment of its own crate (doctests are
# outside). rustc's `unreachable_pub` catches such an item only when no
# `pub` path reaches it; one inside a `pub mod`, or reached through type
# inference (returned by a `pub fn` and used unnamed), shows up here.
no_reexports() {
    awk '
        skip { if (/;/) skip = 0; next }
        /^([0-9]+:)?[[:space:]]*pub use / { if (!/;/) skip = 1; next }
        { print }
    '
}
all_rs="$(find crates tests examples -name '*.rs' | sort)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/all"
for f in $all_rs; do
    mkdir -p "$tmp/all/${f%/*}"
    no_reexports <"$f" >"$tmp/all/$f"
    case "$f" in crates/*/src/* | examples/*) ;; *) continue ;; esac
    case "$f" in
        crates/*/src/*) non_test "$f" | cut -d: -f2- ;;
        *) cat "$f" ;;
    esac | no_reexports | grep -v -E '^[[:space:]]*//' >>"$tmp/production" || true
done
for f in $all_rs; do
    case "$f" in crates/*/src/*) ;; *) continue ;; esac
    kept="$(non_test "$f")"
    printf '%s\n' "$kept" | grep -o -E '^[0-9]+:[[:space:]]*pub fn [A-Za-z0-9_]+' |
        while IFS=: read -r line decl; do
            name="${decl##* }"
            [ "$(grep -c -w -e "$name" "$tmp/production")" -eq 1 ] || continue
            list=tests
            if [ "$(printf '%s\n' "$kept" | no_reexports | grep -c -w -e "$name")" -eq 1 ] &&
                ! grep -r -l -w -e "$name" "$tmp/all" | grep -v -x -F "$tmp/all/$f" >/dev/null; then
                list=nothing
            fi
            printf '%s %s:%s %s\n' "$list" "$f" "$line" "$name"
        done
done >"$tmp/worklist"
printf '\npub fn nothing calls:\n'
sed -n 's/^nothing /  /p' "$tmp/worklist"
printf '\npub fn reached only from tests:\n'
sed -n 's/^tests /  /p' "$tmp/worklist"

printf '\npub names nothing outside the crate names:\n'
for dir in crates/*/; do
    dir="${dir%/}"
    [ "${dir##*/}" != perfbench ] || continue
    for f in $all_rs; do
        case "$f" in
            "$dir"/src/bin/*) cat "$f" ;;
            "$dir"/src/*) grep -E '^[[:space:]]*//[/!]' "$f" || true ;;
            *) cat "$f" ;;
        esac
    done >"$tmp/outside"
    for f in $all_rs; do
        case "$f" in "$dir"/src/bin/*) continue ;; "$dir"/src/*) ;; *) continue ;; esac
        non_test "$f" |
            sed -n -E 's/^([0-9]+):[[:space:]]*pub ((const|unsafe) )?(fn|struct|enum|trait|type|const|static) ([A-Za-z0-9_]+).*/\1 \5/p' |
            while read -r line name; do
                grep -q -w -e "$name" "$tmp/outside" || printf '  %s:%s %s\n' "$f" "$line" "$name"
            done
    done
done

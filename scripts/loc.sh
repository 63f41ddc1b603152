#!/bin/sh
# Size of the workspace, per crate: non-test Rust lines and `pub` items.
# Informational (CHANGES.md quotes it per PR so the trend is visible);
# never a gate. POSIX sh plus one awk pass over the sorted file list: no
# network, no build.
#
# "Non-test" = every line of crates/<crate>/src/**/*.rs except the items
# an unindented `#[cfg(test)]` annotates: the attribute, any attributes
# after it, and the item itself — one line if it ends in `;` or `}`
# (`use …;`), else through the next line that opens with `}` at column 0
# (`mod tests { … }`, `impl X { … }`). A file whose own `mod` line is
# such an item (`#[cfg(test)] mod reference;`) is test code as a whole,
# and so is every file below it. benches/, tests/ and examples/ are not
# counted. A "pub item" is a line opening
# `pub fn|struct|enum|trait|type|const|static|mod` or `pub use` at any
# indent (`pub(crate)` items and fields do not count).
#
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
#
# A word is a run of ASCII letters, digits and `_` (grep -w in the C
# locale); a line counts once however often it names a word.
set -eu
case "$0" in
    */*) cd "${0%/*}/.." ;;
    *) cd .. ;;
esac
LC_ALL=C
export LC_ALL

find crates tests examples -name '*.rs' | sort | awk '
    # The distinct words of `s`, as the keys of `out`.
    function words(s, out,   t, n, i) {
        split("", out)
        n = split(s, t, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (t[i] != "") out[t[i]] = 1
    }
    # Whether `line` is kept by the non-test filter; `st` is its state
    # (0 keep, 1 in the head of the annotated item, 2 in its body).
    function non_test(line) {
        if (st == 2) { if (line ~ /^}/) st = 0; return 0 }
        if (st == 0 && line ~ /^#\[cfg\(test\)\]/) {
            st = 1
            sub(/^#\[cfg\(test\)\][[:space:]]*/, "", line)
        }
        if (st == 1) {
            if (line == "" || line ~ /^#\[/) return 0
            st = line ~ /[;}][[:space:]]*$/ ? 0 : 2
            if (line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) test_mod(line)
            return 0
        }
        return 1
    }
    # Record the file(s) a `#[cfg(test)] mod NAME;` in file `f` declares.
    function test_mod(line,   name, base) {
        name = line
        sub(/;.*/, "", name)
        sub(/.* /, "", name)
        base = f
        sub(/\.rs$/, "", base)
        if (base ~ /\/(lib|main|mod)$/) sub(/\/[^\/]*$/, "", base)
        test_only[base "/" name ".rs"] = 1
        test_only[base "/" name "/"] = 1
    }
    function is_test_only(path,   p) {
        if (path in test_only) return 1
        for (p in test_only) if (p ~ /\/$/ && index(path, p) == 1) return 1
        return 0
    }
    # Whether `line` survives dropping `pub use` re-exports; the state
    # lives in rx[which] so two streams can be filtered side by side.
    function no_reexport(which, line) {
        if (rx[which]) { if (line ~ /;/) rx[which] = 0; return 0 }
        if (line ~ /^[[:space:]]*pub use /) { if (line !~ /;/) rx[which] = 1; return 0 }
        return 1
    }
    { files[++nfiles] = $0 }
    END {
        # Pass 1: which files are test-only modules.
        for (i = 1; i <= nfiles; i++) {
            f = files[i]
            if (f !~ /^crates\/[^\/]+\/src\//) continue
            st = 0
            while ((getline line < f) > 0) non_test(line)
            close(f)
        }
        # Pass 2: every count, over every file.
        for (i = 1; i <= nfiles; i++) {
            f = files[i]
            crate = ""
            if (f ~ /^crates\/[^\/]+\//) {
                crate = substr(f, 8)
                sub(/\/.*/, "", crate)
                if (!(crate in seen_crate)) { seen_crate[crate] = 1; crates[++ncrates] = crate }
            }
            src = f ~ /^crates\/[^\/]+\/src\// && !is_test_only(f)
            bin = f ~ /^crates\/[^\/]+\/src\/bin\//
            owner = f ~ /^crates\/[^\/]+\/src\// && !bin ? crate : ""
            example = f ~ /^examples\//
            st = 0
            rx["raw"] = 0
            rx["kept"] = 0
            split("", in_file)
            nc0 = nc
            n = 0
            while ((getline line < f) > 0) {
                n++
                words(line, w)
                # Outside-the-crate sightings: any line of a file no
                # library src owns, or of another crate; here only the
                # doc comments of the crate itself.
                for (x in w) {
                    if (owner == "") seen_by[x] = "*"
                    else if (!(x in seen_by)) seen_by[x] = owner
                    else if (seen_by[x] != owner) seen_by[x] = "*"
                }
                if (owner != "" && line ~ /^[[:space:]]*\/\/[\/!]/)
                    for (x in w) doc[owner, x] = 1
                if (no_reexport("raw", line)) {
                    for (x in w) {
                        if (!(x in first_file)) first_file[x] = f
                        else if (first_file[x] != f) many_files[x] = 1
                    }
                    if (example && line !~ /^[[:space:]]*\/\//) for (x in w) production[x]++
                }
                if (!src || !non_test(line)) continue
                lines[crate]++
                if (line ~ /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use) /)
                    pubs[crate]++
                if (match(line, /^[[:space:]]*pub fn [A-Za-z0-9_]+/)) {
                    nc++
                    c_file[nc] = f
                    c_line[nc] = n
                    c_name[nc] = substr(line, RSTART, RLENGTH)
                    sub(/.* /, "", c_name[nc])
                }
                rest = line
                if (owner != "" && crate != "perfbench" && sub(/^[[:space:]]*pub /, "", rest)) {
                    kw = "(fn|struct|enum|trait|type|const|static) [A-Za-z0-9_]"
                    if (rest ~ "^(const|unsafe) " kw) sub(/^[a-z]+ /, "", rest)
                    if (rest ~ "^" kw) {
                        sub(/^[a-z]+ /, "", rest)
                        match(rest, /^[A-Za-z0-9_]+/)
                        no++
                        o_crate[no] = crate
                        o_where[no] = f ":" n " " substr(rest, 1, RLENGTH)
                        o_name[no] = substr(rest, 1, RLENGTH)
                    }
                }
                if (!no_reexport("kept", line)) continue
                for (x in w) in_file[x]++
                if (line !~ /^[[:space:]]*\/\//) for (x in w) production[x]++
            }
            close(f)
            for (j = nc0 + 1; j <= nc; j++) c_own[j] = in_file[c_name[j]] + 0
        }

        printf "%-12s %8s %8s\n", "crate", "lines", "pub"
        for (i = 1; i <= ncrates; i++) {
            c = crates[i]
            printf "%-12s %8d %8d\n", c, lines[c], pubs[c]
            total_lines += lines[c]
            total_pub += pubs[c]
        }
        printf "%-12s %8d %8d\n", "total", total_lines, total_pub

        for (j = 1; j <= nc; j++) {
            x = c_name[j]
            if (production[x] != 1) continue
            elsewhere = (x in many_files) || first_file[x] != c_file[j]
            list[j] = c_own[j] == 1 && !elsewhere ? "nothing" : "tests"
        }
        printf "\npub fn nothing calls:\n"
        for (j = 1; j <= nc; j++)
            if (list[j] == "nothing") printf "  %s:%d %s\n", c_file[j], c_line[j], c_name[j]
        printf "\npub fn reached only from tests:\n"
        for (j = 1; j <= nc; j++)
            if (list[j] == "tests") printf "  %s:%d %s\n", c_file[j], c_line[j], c_name[j]

        printf "\npub names nothing outside the crate names:\n"
        for (j = 1; j <= no; j++) {
            x = o_name[j]
            if (x in seen_by && seen_by[x] != o_crate[j]) continue
            if ((o_crate[j], x) in doc) continue
            printf "  %s\n", o_where[j]
        }
    }
'

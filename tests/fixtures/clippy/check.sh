#!/bin/sh
# Checks that rustc, clippy and Cargo enforce the workspace's static
# invariants (DESIGN.md, "Static analysis & invariants"). Every
# violation crate in this directory must fail under `cargo clippy --
# -D warnings` with exactly the expected number of diagnostics per lint
# or error code; every twin must pass, test targets included.
# `lock_leaf_expect` is the twin of both `lock_leaf` and `raw_mutex`;
# every twin gives its reasons, so `expect_without_reason` needs none.
# `layering` (E0432 on an undeclared crate) stands for probe-freedom
# too: the probe-free crates do not declare `aimq-storage`.
#
# Usage: tests/fixtures/clippy/check.sh   (from any directory)
set -u
here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
status=0

clippy() { # <crate> [cargo args]
    crate=$1
    shift
    cargo clippy --quiet --offline "$@" \
        --manifest-path "$here/$crate/Cargo.toml" --target-dir "$target" \
        -- -D warnings 2>&1
}

rejects() { # <crate> <code>=<count>...
    crate=$1
    shift
    if out=$(clippy "$crate" --message-format=json); then
        echo "FAIL $crate: accepted, but it holds violations"
        status=1
        return
    fi
    for want in "$@"; do
        code=${want%=*}
        got=$(printf '%s\n' "$out" | grep -c "\"code\":{\"code\":\"$code\"")
        if [ "$got" != "${want#*=}" ]; then
            echo "FAIL $crate: $got \`$code\` diagnostics, expected ${want#*=}"
            status=1
            return
        fi
    done
    echo "ok   $crate rejected: $*"
}

accepts() { # <crate>
    if out=$(clippy "$1" --all-targets); then
        echo "ok   $1 accepted"
    else
        echo "FAIL $1: rejected:"
        echo "$out"
        status=1
    fi
}

rejects panic clippy::unwrap_used=1 clippy::expect_used=1 clippy::panic=1 \
    clippy::unreachable=1 clippy::todo=1 clippy::unimplemented=1
accepts panic_expect
rejects hashmap clippy::disallowed_types=5
accepts hashmap_expect
rejects indexing clippy::indexing_slicing=2
accepts indexing_expect
rejects float_ordering clippy::disallowed_methods=2
accepts float_ordering_expect
rejects wallclock clippy::disallowed_methods=5
accepts wallclock_expect
rejects layering E0432=1
accepts layering_declared
rejects fault_discipline clippy::let_underscore_must_use=1 \
    clippy::let_underscore_untyped=1 clippy::unused_result_ok=1 \
    unused_must_use=2 unused_variables=1 path_statements=1 \
    clippy::match_wildcard_for_single_variants=1 clippy::wildcard_enum_match_arm=1
accepts fault_discipline_expect
rejects raw_atomic clippy::disallowed_types=4
accepts raw_atomic_expect
rejects counter_arith clippy::arithmetic_side_effects=2
accepts counter_arith_expect
rejects lock_leaf E0308=2 E0277=2
rejects raw_mutex clippy::disallowed_types=2
accepts lock_leaf_expect
rejects expect_without_reason clippy::allow_attributes_without_reason=1
exit $status

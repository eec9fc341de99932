//! Property tests for the hand-rolled JSON codec: `parse ∘ serialize`
//! is the identity on every value the workspace can construct, the
//! compact rendering is a fixed point (canonical form), and the two
//! documented edges hold exactly — surrogate-pair escapes decode on
//! the way in but never re-serialize as escapes, and the `MAX_DEPTH`
//! nesting cap accepts depth 64 while positioning the error for
//! depth 65 at the byte that exceeded it.
//!
//! The identity is on *values*, not bytes: `"\u{1F600}"` and
//! `"😀"` are two spellings of the same string, and the serializer
//! always picks the canonical one (raw UTF-8, escapes only for the
//! mandatory set). Byte identity therefore holds from the second
//! serialization on, which is what `canonical_form_is_a_fixed_point`
//! pins.
//!
//! The vendored proptest stub has no recursive or filtered
//! strategies, so arbitrary trees are grown from a single `u64` seed
//! through a splitmix64 stream: the strategy layer explores seeds,
//! plain code expands each seed into a bounded-depth [`Json`] value.

use aimq_catalog::Json;
use proptest::prelude::*;

/// splitmix64 step — a full-period mixer, so one drawn seed yields an
/// independent stream of choices for the whole tree.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Finite floats only: NaN/∞ deliberately serialize as `null` (JSON
/// has no spelling for them), so they cannot roundtrip as numbers.
fn num_from(seed: &mut u64) -> f64 {
    // The integer-formatting boundary: `write_num` renders integral
    // values below 2^53 through i64, everything else through Display.
    const EDGES: [f64; 8] = [
        0.0,
        -0.0,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_993.0,
        0.1,
        1e-300,
        2.5e17,
    ];
    match next(seed) % 3 {
        0 => EDGES[(next(seed) % EDGES.len() as u64) as usize],
        // Integral values across the full i64-formatted range.
        1 => (next(seed) as i64 >> 11) as f64,
        // Arbitrary bit patterns; the rare non-finite draws fall back
        // to a finite fraction instead of being filtered out.
        _ => {
            let bits = next(seed);
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                (bits >> 12) as f64 * 1e-9
            }
        }
    }
}

/// Strings mixing ASCII, mandatory escapes, raw control bytes, and
/// non-BMP characters (the UTF-8 path the surrogate-pair escape
/// syntax aliases).
fn str_from(seed: &mut u64) -> String {
    const ALPHABET: [char; 14] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '中', '😀',
    ];
    let len = (next(seed) % 10) as usize;
    (0..len)
        .map(|_| ALPHABET[(next(seed) % ALPHABET.len() as u64) as usize])
        .collect()
}

/// Expand one seed into a tree at most 4 levels deep — far inside the
/// parser's `MAX_DEPTH`, which gets its own boundary test below.
fn json_from(seed: &mut u64, depth: u32) -> Json {
    let arms = if depth >= 4 { 4 } else { 6 };
    match next(seed) % arms {
        0 => Json::Null,
        1 => Json::Bool(next(seed).is_multiple_of(2)),
        2 => Json::Num(num_from(seed)),
        3 => Json::Str(str_from(seed)),
        4 => {
            let n = next(seed) % 4;
            Json::Arr((0..n).map(|_| json_from(seed, depth + 1)).collect())
        }
        // Duplicate keys are representable and preserved in order, so
        // colliding `str_from` draws are fair game, not a hazard.
        _ => {
            let n = next(seed) % 4;
            Json::Obj(
                (0..n)
                    .map(|_| (str_from(seed), json_from(seed, depth + 1)))
                    .collect(),
            )
        }
    }
}

fn arb_json() -> impl Strategy<Value = Json> {
    (0u64..u64::MAX).prop_map(|s| {
        let mut seed = s;
        json_from(&mut seed, 0)
    })
}

proptest! {
    #[test]
    fn serialize_then_parse_is_identity(v in arb_json()) {
        let text = v.to_string_compact();
        prop_assert_eq!(Json::parse(&text), Ok(v));
    }

    #[test]
    fn canonical_form_is_a_fixed_point(v in arb_json()) {
        let text = v.to_string_compact();
        let reparsed = Json::parse(&text);
        prop_assert!(reparsed.is_ok(), "canonical form failed to parse: {}", text);
        if let Ok(back) = reparsed {
            prop_assert_eq!(back.to_string_compact(), text);
        }
    }

    #[test]
    fn wrapping_below_the_depth_cap_roundtrips(depth in 0usize..=63, flag in 0u32..2) {
        // A leaf under `depth` array wrappers parses at recursion
        // depth `depth` — legal all the way up to MAX_DEPTH - 1.
        let mut v = Json::Bool(flag == 1);
        for _ in 0..depth {
            v = Json::Arr(vec![v]);
        }
        let text = v.to_string_compact();
        prop_assert_eq!(Json::parse(&text), Ok(v));
    }
}

#[test]
fn surrogate_pair_escapes_decode_but_never_reserialize() {
    let parsed = Json::parse("\"\\ud83d\\ude00\"").expect("surrogate pair decodes");
    assert_eq!(parsed, Json::Str("😀".to_string()));
    // Canonical form is raw UTF-8 — the escape spelling is accepted
    // on input only.
    assert_eq!(parsed.to_string_compact(), "\"😀\"");
    assert_eq!(Json::parse(&parsed.to_string_compact()), Ok(parsed));
    // Unpaired halves are errors, not replacement characters.
    assert!(Json::parse(r#""\ud83d""#).is_err());
    assert!(Json::parse(r#""\udc00""#).is_err());
    assert!(Json::parse(r#""\ud83dA""#).is_err());
}

#[test]
fn depth_cap_accepts_max_depth_and_positions_the_error_one_past() {
    // 64 nested empty arrays: the innermost array is parsed by the
    // call at depth 63 and recurses no further — exactly at the cap.
    let at_cap = format!("{}{}", "[".repeat(64), "]".repeat(64));
    let parsed = Json::parse(&at_cap).expect("depth 64 is legal");
    assert_eq!(parsed.to_string_compact(), at_cap);

    // One more bracket pushes a value() call to depth 64: rejected,
    // and the offset names the 65th `[` (byte 64) that exceeded it.
    let past_cap = format!("{}{}", "[".repeat(65), "]".repeat(65));
    let err = Json::parse(&past_cap).expect_err("depth 65 is rejected");
    assert_eq!(err.offset, 64);
    assert!(err.message.contains("nesting too deep"), "{}", err.message);

    // A leaf at the bottom occupies one more level than an empty
    // array: 64 wrappers around a scalar is already too deep.
    let leaf_past_cap = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    assert!(Json::parse(&leaf_past_cap).is_err());
}

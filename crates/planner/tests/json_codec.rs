//! The JSON codec's fast paths give exactly the answers of the general
//! paths:
//!
//! - every integer text parses to what a naive `str::parse::<i64>`-then-`f64`
//!   reading gives, and every value renders to text that parses back to
//!   itself;
//! - a reply body decodes through the lifted rid slot (`parse_reply` +
//!   `result_from_reply`) to exactly what the tree decoder
//!   (`parse` + `result_from_json`) gives — the same result or a failure on
//!   both sides — over generated results and mutated bodies;
//! - `write_result` writes the bytes of `result_to_json(..).render()`.

use proptest::prelude::*;
use smoke_planner::json::{parse, parse_reply, Json, MAX_DEPTH};
use smoke_planner::wire::{result_from_json, result_from_reply, result_to_json, write_result};
use smoke_planner::{LineageResult, Strategy};
use smoke_storage::{DataType, Relation, Value};

/// The reference reading of one number token: `i64` if it parses as one,
/// else `f64`, else an error. A token JSON cannot start with (`+`, `.`) is
/// an error whatever Rust's parsers accept.
fn reference(text: &str) -> Option<Json> {
    let t = text.trim_matches(|c| matches!(c, ' ' | '\t' | '\n' | '\r'));
    if !t.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        return None;
    }
    t.parse::<i64>()
        .map(Json::Int)
        .ok()
        .or_else(|| t.parse::<f64>().ok().map(Json::Num))
}

fn check(text: &str) {
    assert_eq!(parse(text).ok(), reference(text), "parsing {text:?}");
}

/// Number-ish text: mostly digits, with signs, dots, exponents and a stray
/// letter mixed in.
fn token(picks: &[usize]) -> String {
    const ALPHABET: &[u8] = b"0123456789012345678901234567890123456789-.eE+a";
    picks
        .iter()
        .map(|&p| char::from(ALPHABET[p % ALPHABET.len()]))
        .collect()
}

/// `n` decimal digits drawn from `seed`, leading zeros allowed.
fn digits(seed: u64, n: usize) -> String {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            char::from(b'0' + (s >> 59) as u8 % 10)
        })
        .collect()
}

const SPACES: [&str; 4] = ["", " ", "\n\t", "  \r"];

#[test]
fn edge_case_integers_match_the_reference() {
    let min = i64::MIN.to_string();
    let max = i64::MAX.to_string();
    let cases = [
        "0",
        "-0",
        "007",
        "-007",
        "000000000000000000",
        min.as_str(),
        max.as_str(),
        "-9223372036854775809",
        "9223372036854775808",
        "123456789012345678",
        "-123456789012345678",
        "999999999999999999",
        "1234567890123456789",
        "12345678901234567890",
        "-12345678901234567890",
        "1e3",
        "1E3",
        "1.5",
        "-1.5",
        "1e+3",
        "1-2",
        "-",
        "--1",
        "12a",
        "+5",
        ".5",
        "5.",
        " 42 ",
    ];
    for text in cases {
        check(text);
    }
    assert_eq!(parse(&min).unwrap(), Json::Int(i64::MIN));
    assert_eq!(parse(&max).unwrap(), Json::Int(i64::MAX));
    assert_eq!(
        parse("12345678901234567890").unwrap(),
        Json::Num(12345678901234567890.0)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn integer_text_parses_like_the_reference(
        len in 1usize..22,
        seed in 0u64..u64::MAX,
        negative in 0u8..2,
        noise in prop::collection::vec(0usize..47, 0..24),
    ) {
        let sign = if negative == 1 { "-" } else { "" };
        check(&format!("{sign}{}", digits(seed, len)));
        check(&token(&noise));
    }

    #[test]
    fn arrays_parse_like_the_reference(
        items in prop::collection::vec(
            (prop::collection::vec(0usize..47, 1..22), 0usize..4, 0usize..4),
            1..12,
        ),
    ) {
        let mut text = String::from("[");
        let mut want = Some(Vec::new());
        for (i, (picks, before, after)) in items.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let item = token(picks);
            text.push_str(SPACES[*before]);
            text.push_str(&item);
            text.push_str(SPACES[*after]);
            want = want.zip(reference(&item)).map(|(mut v, x)| {
                v.push(x);
                v
            });
        }
        text.push(']');
        prop_assert_eq!(parse(&text).ok(), want.map(Json::Arr), "parsing {:?}", text);
    }

    #[test]
    fn integers_render_like_format(i in i64::MIN..i64::MAX, small in -1000i64..1000) {
        for v in [i, small, i64::MIN, i64::MAX, 0] {
            prop_assert_eq!(Json::Int(v).render(), format!("{v}"));
        }
    }

    #[test]
    fn nested_values_round_trip(
        cells in prop::collection::vec((0u8..5, i64::MIN..i64::MAX), 0..40),
        rows in 1usize..4,
    ) {
        let mixed: Vec<Json> = cells
            .iter()
            .map(|&(kind, i)| match kind {
                0 => Json::Int(i),
                1 => Json::Int(i % 1_000),
                2 => Json::Num((i % 1_000_000) as f64 + 0.25),
                3 => Json::str(format!("s\"{i}\n")),
                _ => Json::Arr(vec![Json::Int(-(i % 97).abs()), Json::Null]),
            })
            .collect();
        let v = Json::obj([
            ("rids", Json::Arr(mixed.clone())),
            ("rows", Json::Arr(vec![Json::Arr(mixed); rows])),
            ("n", Json::Bool(rows > 1)),
        ]);
        let text = v.render();
        prop_assert_eq!(parse(&text).unwrap(), v);
        // Whitespace around every separator reads the same.
        let spaced = text.replace(',', " ,\n").replace(']', " ]");
        prop_assert_eq!(parse(&spaced).unwrap(), parse(&text).unwrap());
    }
}

#[test]
fn nesting_is_capped_with_a_typed_error() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nest(MAX_DEPTH)).is_ok());
    let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err().to_string();
    assert!(err.contains("nesting"), "{err}");
    // Far past the cap the parser stops at the cap, not at a stack overflow.
    assert!(parse(&"[".repeat(100_000)).is_err());
    let objects = format!(
        "{}1{}",
        "{\"a\":".repeat(MAX_DEPTH + 1),
        "}".repeat(MAX_DEPTH + 1)
    );
    assert!(parse(&objects).is_err());
}

// ---- result replies: the lifted rid slot against the tree decoder ---------

const STRATEGIES: [Strategy; 4] = [
    Strategy::EagerTrace,
    Strategy::LazyRewrite,
    Strategy::PartitionPruned,
    Strategy::CubeHit,
];

/// A decoded result, comparable as a whole.
type Decoded = (Strategy, Vec<u32>, Option<Relation>);

/// The client's decode: the lifted slot, then `result_from_reply`.
fn lifted_decode(body: &str) -> Option<Decoded> {
    let (v, rids) = parse_reply(body).ok()?;
    let r = result_from_reply(v.get("result")?, rids).ok()?;
    Some((r.strategy, r.rids, r.rows))
}

/// The reference decode: the full tree, then `result_from_json`.
fn tree_decode(body: &str) -> Option<Decoded> {
    let v = parse(body).ok()?;
    let r = result_from_json(v.get("result")?).ok()?;
    Some((r.strategy, r.rids, r.rows))
}

/// The object member `key` of `v` (the first, as `Json::get` reads it).
fn member_mut<'a>(v: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match v {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Both decodes agree on `body`, and so do the trees: `parse_reply`'s tree
/// with the lifted rids put back into their slot is `parse`'s tree. Returns
/// whether the slot was lifted.
fn check_reply(body: &str) -> bool {
    assert_eq!(lifted_decode(body), tree_decode(body), "decoding {body:?}");
    match (parse(body), parse_reply(body)) {
        (Ok(tree), Ok((mut lifted, rids))) => {
            let was_lifted = rids.is_some();
            if let Some(rids) = rids {
                let slot = member_mut(&mut lifted, "result")
                    .and_then(|r| member_mut(r, "rids"))
                    .unwrap_or_else(|| panic!("lifted rids without a slot in {body:?}"));
                assert_eq!(*slot, Json::Arr(Vec::new()), "slot of {body:?}");
                *slot = Json::Arr(rids.into_iter().map(|r| Json::Int(r.into())).collect());
            }
            assert_eq!(lifted, tree, "tree of {body:?}");
            was_lifted
        }
        (Err(_), Err(_)) => false,
        (tree, lifted) => panic!("{body:?}: parse gave {tree:?}, parse_reply gave {lifted:?}"),
    }
}

/// The reply body the server sends for `result`: the bytes of
/// `ok_response("result", result_to_json(result))`.
fn envelope(result: &LineageResult) -> String {
    Json::obj([
        ("status", Json::str("ok")),
        ("result", result_to_json(result)),
    ])
    .render()
}

fn written(result: &LineageResult) -> String {
    let mut out = String::new();
    write_result(result, &mut out);
    out
}

/// Strings the renderer must escape, and some it must not.
const TEXTS: [&str; 6] = [
    "plain",
    "q\"uote",
    "back\\slash",
    "line\nfeed\t",
    "\u{1}ctl",
    "héllo ∀",
];

/// A relation with an `Int`, a `Float` and a `Str` column, one row per cell.
fn rows_of(cells: &[(u8, i64)]) -> Relation {
    Relation::builder("answer")
        .column("k", DataType::Int)
        .column("f", DataType::Float)
        .column("s", DataType::Str)
        .rows(cells.iter().map(|&(pick, i)| {
            vec![
                Value::Int(i),
                Value::Float((i % 1_000_000) as f64 / 8.0),
                Value::Str(format!("{}{i}", TEXTS[usize::from(pick) % TEXTS.len()])),
            ]
        }))
        .build()
        .expect("a well-typed relation")
}

/// A rid drawn with the edges weighted in: 0, `u32::MAX`, small and any.
fn rid((kind, value): (u8, u32)) -> u32 {
    match kind {
        0 => 0,
        1 => u32::MAX,
        2 => value % 1_000,
        _ => value,
    }
}

/// Spellings of one array element the compact loop does not take (or
/// takes to a value that must match the tree's): every one is decided as
/// the tree decoder decides it.
const ODD_ELEMENTS: [&str; 22] = [
    "007",
    "-0",
    "0",
    "1.0",
    "1e3",
    "1E3",
    "-5",
    "4294967295",
    "4294967296",
    "9999999999",
    "0000000001",
    "00000000001",
    "12345678901",
    "1234567890123456789",
    "12345678901234567890",
    "-4294967295",
    "+5",
    "",
    "0x1",
    "null",
    "\"3\"",
    "[1]",
];

/// Separators between elements the compact loop does not take.
const SEPARATORS: [&str; 4] = [" ,", ", ", ",\n", "\t,\r"];

/// A rid array's text: each element plain or odd (an index past
/// [`ODD_ELEMENTS`] is plain), each separator compact or spaced (likewise),
/// optionally padded inside the brackets.
fn rid_array(elements: &[(u32, usize, usize)], pad: bool) -> String {
    let mut text = String::from(if pad { "[ " } else { "[" });
    for (i, &(value, odd, sep)) in elements.iter().enumerate() {
        if i > 0 {
            text.push_str(SEPARATORS.get(sep).unwrap_or(&","));
        }
        match ODD_ELEMENTS.get(odd) {
            Some(odd) => text.push_str(odd),
            None => text.push_str(&value.to_string()),
        }
    }
    text.push_str(if pad { " ]" } else { "]" });
    text
}

/// One reply body with its result object's members in `order`, and one of
/// the layouts that put a second or misplaced `rids` around the real one.
fn reply_body(strategy: &str, rids: &str, rows: &str, order: usize, layout: usize) -> String {
    let mut members = vec![
        format!("\"strategy\":{strategy}"),
        format!("\"rids\":{rids}"),
        format!("\"rows\":{rows}"),
    ];
    members.rotate_left(order % 3);
    if order % 2 == 1 {
        members.swap(0, 1);
    }
    match layout {
        // A duplicate `rids` after the real one, and one before it.
        1 => members.push("\"rids\":[5,\"x\"]".to_string()),
        2 => members.insert(0, "\"rids\":[9,8]".to_string()),
        _ => {}
    }
    let result = format!("{{{}}}", members.join(","));
    match layout {
        3 => format!(r#"{{"status":"ok","explain":{{"rids":[1,2]}},"result":{result}}}"#),
        4 => format!(r#"{{"status":"ok","result":{result},"stats":{{"rids":[3]}}}}"#),
        5 => format!(r#"{{"result":{result},"status":"ok","result":{{"rids":[4]}}}}"#),
        6 => format!(r#"{{"status":"ok","result":[{result}]}}"#),
        7 => format!(r#"{{ "status" : "ok" , "result" : {result} }}"#),
        _ => format!(r#"{{"status":"ok","result":{result}}}"#),
    }
}

/// Truncates, overwrites or splices one byte (printable ASCII), or leaves
/// the body alone.
fn damage(body: &str, (kind, at, byte): (u8, usize, u8)) -> String {
    let mut bytes = body.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    let byte = b' ' + byte % 95;
    match kind {
        1 => bytes.truncate(at),
        2 if at < bytes.len() => bytes[at] = byte,
        3 => bytes.insert(at, byte),
        _ => {}
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn edge_case_replies_decode_like_the_tree() {
    let rid_texts = [
        "[]",
        "[0]",
        "[4294967295]",
        "[4294967296]",
        "[007,8]",
        "[-0]",
        "[1.0]",
        "[1e3]",
        "[-1]",
        "[0000000001]",
        "[00000000001]",
        "[12345678901]",
        "[1234567890123456789]",
        "[12345678901234567890]",
        "[1 ,2]",
        "[1, 2]",
        "[ 1,2]",
        "[1,2 ]",
        "[1,,2]",
        "[1,]",
        "[,1]",
        "[1",
        "1",
        "null",
        "{}",
        "[[1]]",
        "[\"1\"]",
        "[1,2]x",
    ];
    for rids in rid_texts {
        for order in 0..6 {
            for layout in 0..8 {
                check_reply(&reply_body("\"EagerTrace\"", rids, "null", order, layout));
            }
        }
    }
    // Compact arrays are lifted, and decode to their values.
    let body = reply_body("\"CubeHit\"", "[007,0,4294967295,0000000001]", "null", 0, 0);
    assert!(check_reply(&body));
    assert_eq!(
        lifted_decode(&body).map(|d| d.1),
        Some(vec![7, 0, u32::MAX, 1])
    );
    // Past ten digits or past `u32::MAX` the general path decides: leading
    // zeros are fine, a value that does not fit is not.
    let long = reply_body("\"CubeHit\"", "[00000000001]", "null", 0, 0);
    assert!(!check_reply(&long));
    assert_eq!(lifted_decode(&long).map(|d| d.1), Some(vec![1]));
    assert!(lifted_decode(&reply_body("\"CubeHit\"", "[4294967296]", "null", 0, 0)).is_none());
    assert!(lifted_decode(&reply_body("\"CubeHit\"", "[12345678901]", "null", 0, 0)).is_none());
    // Only the first `rids` of the first `result` is the slot.
    let dup = reply_body("\"EagerTrace\"", "[1,2]", "null", 0, 2);
    assert_eq!(lifted_decode(&dup).map(|d| d.1), Some(vec![9, 8]));
    // Misplaced `rids` are never lifted.
    let (_, nothing) = parse_reply(r#"{"status":"ok","explain":{"rids":[1]}}"#).unwrap();
    assert_eq!(nothing, None);
    // Trailing text, bad nesting and the depth cap fail as they do without
    // the slot.
    for bad in [
        r#"{"status":"ok","result":{"strategy":"CubeHit","rids":[1],"rows":null}} x"#,
        r#"{"status":"ok","result":{"strategy":"CubeHit","rids":[1],"rows":null]}"#,
        r#"{"status":"ok","result":{"strategy":"CubeHit","rids":[1]"#,
    ] {
        assert!(parse_reply(bad).is_err(), "{bad}");
        check_reply(bad);
    }
    let deep = format!(
        r#"{{"status":"ok","result":{{"rids":[1],"rows":{}1{}}}}}"#,
        "[".repeat(MAX_DEPTH),
        "]".repeat(MAX_DEPTH)
    );
    assert!(parse_reply(&deep).is_err());
    check_reply(&deep);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_results_round_trip_through_the_lifted_slot(
        strategy in 0usize..4,
        rids in prop::collection::vec((0u8..4, 0u32..u32::MAX), 0..48),
        with_rows in 0u8..2,
        cells in prop::collection::vec((0u8..6, -1_000_000_000i64..1_000_000_000), 0..6),
    ) {
        let result = LineageResult {
            strategy: STRATEGIES[strategy],
            rids: rids.into_iter().map(rid).collect(),
            rows: (with_rows == 1).then(|| rows_of(&cells)),
        };
        prop_assert_eq!(written(&result), result_to_json(&result).render());
        let body = envelope(&result);
        prop_assert!(check_reply(&body), "a compact reply is lifted: {}", body);
        prop_assert_eq!(
            lifted_decode(&body),
            Some((result.strategy, result.rids.clone(), result.rows.clone()))
        );
    }

    #[test]
    fn mutated_replies_decode_like_the_tree(
        strategy in 0usize..6,
        elements in prop::collection::vec((0u32..u32::MAX, 0usize..160, 0usize..40), 0..10),
        shape in (0usize..6, 0usize..12, 0u8..4),
        damage_at in (0u8..6, 0usize..4_096, 0u8..95),
        cells in prop::collection::vec((0u8..6, -1_000i64..1_000), 0..3),
    ) {
        let (order, layout, rows) = shape;
        let strategy = match STRATEGIES.get(strategy) {
            Some(s) => format!("\"{s}\""),
            None if strategy == 4 => "\"Magic\"".to_string(),
            None => "7".to_string(),
        };
        let rows = match rows {
            0 | 1 => "null".to_string(),
            2 => result_to_json(&LineageResult {
                strategy: Strategy::CubeHit,
                rids: Vec::new(),
                rows: Some(rows_of(&cells)),
            })
            .get("rows")
            .map(Json::render)
            .unwrap_or_default(),
            _ => r#"{"name":"r","schema":[],"data":[],"rids":[1]}"#.to_string(),
        };
        let rids = rid_array(&elements, layout == 11);
        let body = reply_body(&strategy, &rids, &rows, order, layout % 8);
        check_reply(&damage(&body, damage_at));
    }
}

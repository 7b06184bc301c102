//! `serde_json::from_str` reads text straight into a type through
//! `Deserialize::read_json`; `from_json_value` over the parsed tree is
//! the reference.  On every text — valid, truncated, bit-flipped, with
//! keys reordered, duplicated or unknown, with whitespace between
//! tokens — the two must both refuse or both accept, with equal values.

mod shapes;

use gridflow_telemetry::{TraceEvent, TraceRecord};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use shapes::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Debug;

/// Read `text` both ways and require the same verdict.  Equal values
/// must also print the same, which tells `-0.0` from `0.0`.
fn agree<T: Deserialize + Serialize + PartialEq + Debug>(text: &str) {
    let read = serde_json::from_str::<T>(text);
    let tree = serde::json_value::parse(text).and_then(|v| T::from_json_value(&v));
    match (&read, &tree) {
        (Ok(read), Ok(tree)) => {
            assert_eq!(read, tree, "{text:?}");
            let print = |x: &T| serde_json::to_string(x).unwrap();
            assert_eq!(print(read), print(tree), "{text:?}");
        }
        (Err(_), Err(_)) => {}
        _ => panic!("{text:?}: read {read:?}, tree {tree:?}"),
    }
}

/// A tiny deterministic generator for the text mutations.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// `v` printed with whitespace between tokens, every object's keys in a
/// shuffled order, now and then an unknown key, and now and then a key
/// written twice — a junk value first, the real one last.
fn scrambled(v: &Value, rng: &mut Rng) -> String {
    const WS: [&str; 4] = ["", " ", "\n", " \t\r "];
    let ws = |rng: &mut Rng| WS[rng.below(WS.len())];
    let junk = [r#""junk""#, "null", "-1.5e3", r#"[{"a":[]},true]"#, "{}"];
    match v {
        Value::Array(items) => {
            let items: Vec<_> = items.iter().map(|i| scrambled(i, rng)).collect();
            format!("[{}{}]", items.join(&format!("{},", ws(rng))), ws(rng))
        }
        Value::Object(map) => {
            let mut keys: Vec<Vec<String>> = Vec::new();
            for (key, value) in map {
                let key = Value::String(key.clone()).to_string();
                let mut entries = Vec::new();
                if rng.below(4) == 0 {
                    entries.push(format!("{key}:{}", junk[rng.below(junk.len())]));
                }
                entries.push(format!("{key}{}:{}", ws(rng), scrambled(value, rng)));
                keys.push(entries);
            }
            if rng.below(3) == 0 {
                keys.push(vec![format!(
                    r#""unknown":{}"#,
                    junk[rng.below(junk.len())]
                )]);
            }
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i + 1));
            }
            let entries = keys.concat().join(&format!(",{}", ws(rng)));
            format!("{{{}{entries}}}", ws(rng))
        }
        scalar => format!("{}{scalar}", ws(rng)),
    }
}

/// `value`'s text and its mutations, each read both ways: every
/// truncation, a bit flip per 16 bytes, and scrambled reprints.
fn agree_mutated<T: Deserialize + Serialize + PartialEq + Debug>(value: &T, seed: u64) {
    let text = serde_json::to_string(value).unwrap();
    agree::<T>(&text);
    for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        agree::<T>(&text[..cut]);
    }
    let mut rng = Rng(seed | 1);
    for _ in 0..text.len() / 16 + 1 {
        let mut bytes = text.clone().into_bytes();
        bytes[rng.below(text.len())] ^= 1 << rng.below(8);
        if let Ok(flipped) = String::from_utf8(bytes) {
            agree::<T>(&flipped);
        }
    }
    let tree = serde::json_value::parse(&text).unwrap();
    for _ in 0..4 {
        agree::<T>(&scrambled(&tree, &mut rng));
    }
}

proptest! {
    #[test]
    fn derived_structs_read_as_their_tree(value in named(), a in prop::option::of(any::<u8>()), b in prop::option::of(text()), seed in any::<u64>()) {
        agree_mutated(&value, seed);
        agree_mutated(&AllSkipped { b, a }, seed);
    }

    #[test]
    fn derived_enums_read_as_their_tree(value in shape(), boxed in shape(), seed in any::<u64>()) {
        agree_mutated(&value, seed);
        agree_mutated(&Shape::One(Box::new(boxed)), seed);
    }

    #[test]
    fn strings_and_numbers_read_as_their_tree(s in text(), f in float(), u in any::<u64>(), i in any::<i64>(), seed in any::<u64>()) {
        agree_mutated(&s, seed);
        agree_mutated(&s.chars().next(), seed);
        agree_mutated(&f, seed);
        agree_mutated(&(f as f32), seed);
        agree_mutated(&u, seed);
        agree_mutated(&i, seed);
        agree_mutated(&(u as u8, i as i8, u as usize, i as isize), seed);
        agree_mutated(&(u.is_multiple_of(2), ()), seed);
    }

    #[test]
    fn containers_read_as_their_tree(
        keyed in prop::collection::vec((any::<i64>(), text()), 0..6),
        named in prop::collection::vec((text(), float()), 0..6),
        items in prop::collection::vec(prop::option::of(float()), 0..6),
        seed in any::<u64>(),
    ) {
        agree_mutated(&keyed.iter().cloned().collect::<BTreeMap<i64, String>>(), seed);
        agree_mutated(&keyed.iter().cloned().collect::<HashMap<i64, String>>(), seed);
        agree_mutated(&named.iter().cloned().collect::<BTreeMap<String, f64>>(), seed);
        agree_mutated(&named.iter().map(|(k, _)| k.clone()).collect::<BTreeSet<String>>(), seed);
        agree_mutated(&named.iter().map(|(k, _)| k.clone()).collect::<HashSet<String>>(), seed);
        agree_mutated(&items, seed);
        agree_mutated(&items.iter().copied().collect::<VecDeque<_>>(), seed);
        agree_mutated(&(items.first().copied(), named.first().cloned()), seed);
        agree_mutated(&Box::new(items.clone()), seed);
        agree_mutated(&serde_json::to_value(&named).unwrap(), seed);
    }
}

#[test]
fn every_shape_reads_as_its_tree() {
    agree_mutated(&Unit, 1);
    agree_mutated(&Nothing(), 2);
    agree_mutated(&Empty {}, 3);
    agree_mutated(&Newtype(Some(-0.0)), 4);
    agree_mutated(&Pair(-7, "x\"y".into()), 5);
    agree_mutated(&Shape::<u8>::Unit, 6);
    agree_mutated(&Shape::<u8>::Zero(), 7);
    agree_mutated(&Shape::<u8>::Two(1, "b".into()), 8);
}

#[test]
fn every_trace_event_variant_reads_as_its_tree() {
    let events = one_of_each();
    let labels: BTreeSet<_> = events.iter().map(TraceEvent::label).collect();
    assert_eq!(labels.len(), 38, "one_of_each() misses a variant");
    for (seq, event) in events.into_iter().enumerate() {
        let record = TraceRecord {
            seq: seq as u64,
            tick: 3,
            at_s: seq as f64 * 0.25,
            source: "case:a\"b/enactor".into(),
            event,
        };
        agree_mutated(&record, seq as u64);
        agree_mutated(&record.event, seq as u64);
    }
}

/// The texts where the two forms could most easily part: numbers the
/// integer impls must refuse (or not) as the tree does, `null` where a
/// number belongs, both forms of a unit variant, variant objects with
/// two keys or one key twice, out-of-order and equal map keys.
#[test]
fn the_edge_texts_read_as_their_tree() {
    for text in [
        "1.0",
        "-0",
        "1e3",
        "01",
        "-1",
        "18446744073709551616",
        "1.5",
        "null",
        "",
    ] {
        agree::<u64>(text);
        agree::<i64>(text);
        agree::<u8>(text);
        agree::<f64>(text);
        agree::<Option<f64>>(text);
        agree::<Option<u64>>(text);
    }
    agree::<i64>("-9223372036854775809");
    agree::<u64>("99999999999999999999");
    for text in [
        r#""Unit""#,
        r#"{"Unit":null}"#,
        r#"{"Unit":[1,{"a":2}]}"#,
        r#"{"Unit":nul}"#,
        r#""One""#,
        r#""Nope""#,
        r#"{"Nope":1}"#,
        r#"{}"#,
        r#"{"One":1,"Two":[1,"b"]}"#,
        r#"{"One":1,"One":2}"#,
        r#"{"One":"x","One":2}"#,
        r#"{"One":2,"One":"x"}"#,
        r#"{"Zero":[]}"#,
        r#"{"Zero":[1]}"#,
        r#"{"Two":[1]}"#,
        r#"{"Two":[1,"b",3]}"#,
        r#"{"Two":{"0":1}}"#,
        r#"{"Rec":{"z":1,"keyed":{}}}"#,
        r#"{"Rec":{"z":1,"keyed":{"2":3,"10":4,"02":5}}}"#,
        r#"{"Rec":{"keyed":{}}}"#,
        r#"{"Rec":{"z":1,"z":"x","keyed":{}}}"#,
        r#"{"Rec":[1]}"#,
        r#"7"#,
    ] {
        agree::<Shape<u8>>(text);
        agree::<Vec<Shape<u8>>>(&format!("[{text}]"));
    }
    for text in [
        r#"{"2":"b","10":"a"}"#,
        r#"{"01":"x","1":"y"}"#,
        r#"{"1":"y","01":"x"}"#,
        r#"{"1":"xx","1":"y"}"#,
        r#"{"1":"y","1":"xx"}"#,
        r#"{"a":"x"}"#,
        r#"{"-1":"x","+1":"y"}"#,
    ] {
        agree::<BTreeMap<u32, char>>(text);
        agree::<HashMap<i64, char>>(text);
        agree::<BTreeMap<String, char>>(text);
    }
    for text in ["5", r#"{"a":1}"#, "[", "nul", "[1,2]", "[]", r#""x""#] {
        agree::<Unit>(text);
        agree::<Nothing>(text);
        agree::<Empty>(text);
        agree::<Pair>(text);
        agree::<(u8,)>(text);
        agree::<()>(text);
    }
    for text in [
        r##"{"zeta":1,"mid":[],"r#type":2}"##,
        r##"{"zeta":1,"mid":[],"r#type":2,"alpha":null,"nested":null}"##,
        r##"{"zeta":1,"mid":[],"r#type":2,"alpha":1}"##,
        r##"{"zeta":1,"mid":[],"r#type":256}"##,
        r##"{"zeta":1,"mid":[]}"##,
        r##"{"zeta":"x","zeta":1,"mid":[],"r#type":2}"##,
        r##"{"zeta":1,"zeta":"x","mid":[],"r#type":2}"##,
        r##"{"zeta":1,"mid":[],"r#type":2}"##,
        r##"{"zeta":1,"mid":[],"r#type":2,"zz":"😀"}"##,
        r##"{"zeta":1,"mid":[],"r#type":2,"zz":"\ud83d"}"##,
        r##"{"zeta":1,"mid":[],"r#type":2} x"##,
        r##"{"zeta":1,"mid":[],"r#type":2,}"##,
    ] {
        agree::<Named<u64>>(text);
    }
    for text in [r#""é""#, r#""ab""#, r#""""#, r#""é""#] {
        agree::<char>(text);
    }
}

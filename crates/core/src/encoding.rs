//! Rendering of queries, tuples and facts into model-input text.
//!
//! The paper feeds BERT the tokenized SQL text of the query, the output
//! tuple, and the fact. We render each element canonically:
//!
//! * query — its canonical SQL (`ls_relational::to_sql`);
//! * output tuple — its projected values, `(v1, v2, …)`;
//! * fact — `table ( v1 , v2 , … )`, exposing both the owning relation name
//!   and the attribute values (Figure 8's fact rendering).

use crate::tokenizer::split_words;
use ls_relational::{Database, FactId, OutputTuple};

/// Render a fact as `table ( v1 , v2 , … )`.
///
/// # Panics
/// Panics if the fact id is not in the database.
pub fn render_fact(db: &Database, f: FactId) -> String {
    let (table, row) = db.fact(f).expect("fact id out of range");
    format!("{table} {}", row.tuple_string())
}

/// Render an output tuple as `(v1, v2, …)`.
pub fn render_tuple(t: &OutputTuple) -> String {
    t.value_string()
}

/// Bucket an overlap count into a feature token suffix: `0`, `1`, `2`, `3+`.
fn bucket(n: usize) -> &'static str {
    match n {
        0 => "0",
        1 => "1",
        2 => "2",
        _ => "3",
    }
}

/// The segment-B text with explicit *overlap feature tokens*.
///
/// Appends `ovt<k>` (tokens the fact shares with the output tuple) and
/// `ovq<k>` (tokens the fact shares with the query text), both bucketed at
/// 3+. These features are computable from exactly the deployment inputs —
/// query text, output tuple, lineage fact — and stand in for the
/// token-identity attention patterns a web-scale BERT learns implicitly;
/// our laptop-scale encoder gets them spelled out (see DESIGN.md §1).
pub fn render_tuple_and_fact_featured(
    db: &Database,
    query_sql: &str,
    t: &OutputTuple,
    f: FactId,
) -> String {
    let tuple_text = render_tuple(t);
    let tuple_words = split_words(&tuple_text);
    let query_words = split_words(query_sql);
    render_featured_hoisted(db, &query_words, &tuple_text, &tuple_words, f)
}

/// [`render_tuple_and_fact_featured`] with the query- and tuple-side word
/// splits precomputed.
///
/// The query and tuple halves of the rendering are invariant across a
/// lineage, so inference hoists them out of the per-fact loop (they used to
/// be recomputed for every fact). Produces exactly the output of
/// [`render_tuple_and_fact_featured`] for
/// `tuple_text = render_tuple(t)`, `tuple_words = split_words(&tuple_text)`
/// and `query_words = split_words(query_sql)`.
pub fn render_featured_hoisted(
    db: &Database,
    query_words: &[String],
    tuple_text: &str,
    tuple_words: &[String],
    f: FactId,
) -> String {
    let fact_text = render_fact(db, f);
    let fact_words = split_words(&fact_text);
    let is_word = |w: &String| w.chars().any(char::is_alphanumeric);
    let ovt = fact_words
        .iter()
        .filter(|w| is_word(w) && tuple_words.contains(w))
        .count();
    let ovq = fact_words
        .iter()
        .filter(|w| is_word(w) && query_words.contains(w))
        .count();
    format!(
        "{tuple_text} ; {fact_text} ; ovt{} ovq{}",
        bucket(ovt),
        bucket(ovq)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_relational::{ColType, Database, Monomial, TableSchema, Value};

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(TableSchema::new(
            "movies",
            &[("title", ColType::Str), ("year", ColType::Int)],
        ));
        d.insert("movies", vec!["Superman".into(), 2007.into()]);
        d
    }

    #[test]
    fn fact_rendering() {
        let d = db();
        assert_eq!(render_fact(&d, FactId(0)), "movies (Superman, 2007)");
    }

    #[test]
    fn tuple_rendering() {
        let t = OutputTuple {
            values: vec![Value::from("Alice"), Value::Int(45)],
            derivations: vec![Monomial::one()],
        };
        assert_eq!(render_tuple(&t), "(Alice, 45)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn missing_fact_panics() {
        render_fact(&db(), FactId(99));
    }

    #[test]
    fn featured_rendering_counts_overlap() {
        let d = db();
        // Tuple shares "superman" with the fact; query shares "2007".
        let t = OutputTuple {
            values: vec![Value::from("Superman")],
            derivations: vec![Monomial::one()],
        };
        let s = render_tuple_and_fact_featured(
            &d,
            "SELECT movies.title FROM movies WHERE movies.year = 2007",
            &t,
            FactId(0),
        );
        assert!(s.contains("ovt1"), "tuple overlap = 1 (superman): {s}");
        // Fact words: movies, superman, 2007 (+punct); query contains
        // "movies" and "2007" → ovq2.
        assert!(s.contains("ovq2"), "query overlap: {s}");
    }

    #[test]
    fn featured_rendering_zero_overlap() {
        let d = db();
        let t = OutputTuple {
            values: vec![Value::from("Nothing Shared")],
            derivations: vec![Monomial::one()],
        };
        let s = render_tuple_and_fact_featured(&d, "SELECT a.x FROM a", &t, FactId(0));
        assert!(s.contains("ovt0"));
        assert!(s.contains("ovq0"));
    }
}

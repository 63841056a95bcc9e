//! A database: a disjoint union of annotated relations, with global fact
//! identity, a shared value dictionary, and reverse lookup from a [`FactId`]
//! to its row.

use crate::dict::ValueDict;
use crate::fact::FactId;
use crate::row::IdRow;
use crate::schema::TableSchema;
use crate::table::{Row, Table};
use crate::value::Value;
use std::collections::BTreeMap;

/// Location of a fact inside the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactLocation {
    /// Index of the owning table in name order (see [`Database::table_names`]).
    pub table_idx: usize,
    /// Row offset inside the table.
    pub row_idx: usize,
}

/// An in-memory database with fact-annotated, dictionary-interned rows.
///
/// Fact ids are assigned densely at insertion time: the `i`-th inserted row
/// across the whole database gets `FactId(i)`. This makes `Vec`-indexed
/// per-fact side tables (Shapley vectors, seen-fact bitmaps) trivial.
///
/// Every cell value is interned into one database-wide [`ValueDict`] at
/// insertion, so tables store [`IdRow`]s and the evaluator compares, hashes
/// and groups rows as `u32` ids. Decoded [`Value`]s are materialized only at
/// the boundaries (display, export, tokenization) via [`Database::dict`],
/// [`Database::fact`] and [`Database::decoded_rows`].
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// `fact_index[f] = location of fact f`, dense in insertion order.
    fact_index: Vec<FactLocation>,
    /// The shared value dictionary all tables intern into.
    dict: ValueDict,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an empty table.
    ///
    /// # Panics
    /// Panics if a table of the same name already exists.
    pub fn create_table(&mut self, schema: TableSchema) {
        let name = schema.name.clone();
        let prev = self.tables.insert(name.clone(), Table::new(schema));
        assert!(prev.is_none(), "table `{name}` already exists");
    }

    /// Insert a row, assigning and returning the next dense [`FactId`].
    ///
    /// Values are type-checked against the schema, then interned into the
    /// database dictionary.
    ///
    /// # Panics
    /// Panics if the table does not exist or the row does not fit its schema.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> FactId {
        let fact = FactId(self.fact_index.len() as u32);
        // Compute the location before mutably borrowing the table.
        let table_idx = self
            .tables
            .keys()
            .position(|n| n == table)
            .unwrap_or_else(|| panic!("no such table `{table}`"));
        let t = self.tables.get_mut(table).expect("checked above");
        assert_eq!(
            values.len(),
            t.schema.arity(),
            "arity mismatch inserting into `{}`",
            t.schema.name
        );
        for (v, c) in values.iter().zip(&t.schema.columns) {
            assert_eq!(
                v.col_type(),
                c.ty,
                "type mismatch for `{}`.`{}`",
                t.schema.name,
                c.name
            );
        }
        let row: IdRow = values.into_iter().map(|v| self.dict.intern(v)).collect();
        let row_idx = t.len();
        t.push_interned(row, fact);
        self.fact_index.push(FactLocation { table_idx, row_idx });
        fact
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Table names in sorted order (stable across runs).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Iterate over tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// The shared value dictionary.
    #[inline]
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// Total number of facts across all tables.
    pub fn fact_count(&self) -> usize {
        self.fact_index.len()
    }

    /// The table index (in [`Database::table_names`] order) owning fact `f`.
    /// This is the stratum key for relation-stratified Shapley sampling:
    /// O(1), no row decoding.
    pub fn fact_table_idx(&self, f: FactId) -> Option<usize> {
        self.fact_index.get(f.index()).map(|loc| loc.table_idx)
    }

    /// The decoded row carrying fact `f`, with its owning table name.
    pub fn fact(&self, f: FactId) -> Option<(&str, Row)> {
        let loc = self.fact_index.get(f.index())?;
        let (name, table) = self.tables.iter().nth(loc.table_idx)?;
        Some((name.as_str(), table.decode_row(&self.dict, loc.row_idx)))
    }

    /// The decoded value at `(table, row, col)`, if all three are in range.
    pub fn cell(&self, table: &str, row: usize, col: usize) -> Option<&Value> {
        let t = self.tables.get(table)?;
        let id = t.id_rows().get(row)?.get(col)?;
        Some(self.dict.value(id))
    }

    /// Iterate decoded rows of `table` in insertion order.
    ///
    /// # Panics
    /// Panics if the table does not exist.
    pub fn decoded_rows<'a>(&'a self, table: &str) -> impl Iterator<Item = Row> + 'a {
        let t = self
            .tables
            .get(table)
            .unwrap_or_else(|| panic!("no such table `{table}`"));
        t.decoded_rows(&self.dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColType;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(TableSchema::new(
            "movies",
            &[("title", ColType::Str), ("year", ColType::Int)],
        ));
        d.create_table(TableSchema::new("actors", &[("name", ColType::Str)]));
        d
    }

    #[test]
    fn dense_fact_ids_across_tables() {
        let mut d = db();
        let f0 = d.insert("movies", vec!["Superman".into(), 2007.into()]);
        let f1 = d.insert("actors", vec!["Alice".into()]);
        let f2 = d.insert("movies", vec!["Aquaman".into(), 2007.into()]);
        assert_eq!((f0, f1, f2), (FactId(0), FactId(1), FactId(2)));
        assert_eq!(d.fact_count(), 3);
    }

    #[test]
    fn fact_reverse_lookup() {
        let mut d = db();
        d.insert("movies", vec!["Superman".into(), 2007.into()]);
        let f = d.insert("actors", vec!["Alice".into()]);
        let (table, row) = d.fact(f).unwrap();
        assert_eq!(table, "actors");
        assert_eq!(row.values[0], Value::from("Alice"));
        assert!(d.fact(FactId(99)).is_none());
    }

    #[test]
    fn interning_shares_repeated_cells() {
        let mut d = db();
        d.insert("movies", vec!["Superman".into(), 2007.into()]);
        d.insert("movies", vec!["Aquaman".into(), 2007.into()]);
        let t = d.table("movies").unwrap();
        // The shared year decodes from one dictionary slot.
        assert_eq!(t.id_row(0).get(1), t.id_row(1).get(1));
        // 3 distinct values: two titles + one year.
        assert_eq!(d.dict().len(), 3);
        assert_eq!(d.cell("movies", 1, 0), Some(&Value::from("Aquaman")));
        assert_eq!(d.cell("movies", 2, 0), None);
        assert_eq!(d.cell("movies", 0, 5), None);
        assert_eq!(d.cell("nope", 0, 0), None);
        let titles: Vec<Value> = d
            .decoded_rows("movies")
            .map(|r| r.values[0].clone())
            .collect();
        assert_eq!(
            titles,
            vec![Value::from("Superman"), Value::from("Aquaman")]
        );
    }

    #[test]
    fn catalog_reflects_tables() {
        let d = db();
        assert_eq!(d.table_names(), vec!["actors", "movies"]);
    }

    #[test]
    #[should_panic(expected = "no such table")]
    fn insert_into_missing_table_panics() {
        let mut d = db();
        d.insert("companies", vec!["Universal".into()]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut d = db();
        d.insert("movies", vec![2007.into(), "Superman".into()]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut d = db();
        d.insert("movies", vec!["x".into()]);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_table_panics() {
        let mut d = db();
        d.create_table(TableSchema::new("movies", &[("x", ColType::Int)]));
    }
}

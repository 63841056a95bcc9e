//! Table schemas.

use crate::value::ColType;
use std::fmt;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Column name, unique within its table.
    pub name: String,
    /// Column type.
    pub ty: ColType,
}

impl Column {
    /// Construct a column.
    pub fn new(name: impl Into<String>, ty: ColType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// The schema of a single relation: its name and ordered columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Relation name, unique within its database.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Construct a schema from `(name, type)` column pairs.
    ///
    /// # Panics
    /// Panics if two columns share a name; schemas are tiny and constructed by
    /// hand or by generators, so a duplicate is a programming error.
    pub fn new(name: impl Into<String>, cols: &[(&str, ColType)]) -> Self {
        let columns: Vec<Column> = cols.iter().map(|(n, t)| Column::new(*n, *t)).collect();
        for (i, c) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|p| p.name == c.name),
                "duplicate column `{}` in table `{}`",
                c.name,
                name_ref(&columns, i)
            );
        }
        TableSchema {
            name: name.into(),
            columns,
        }
    }

    /// Index of the column with the given name, if present.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column definition with the given name, if present.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

fn name_ref(columns: &[Column], i: usize) -> &str {
    &columns[i].name
}

impl fmt::Display for TableSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movies() -> TableSchema {
        TableSchema::new(
            "movies",
            &[
                ("title", ColType::Str),
                ("year", ColType::Int),
                ("company", ColType::Str),
            ],
        )
    }

    #[test]
    fn col_index_and_lookup() {
        let s = movies();
        assert_eq!(s.col_index("year"), Some(1));
        assert_eq!(s.col_index("nope"), None);
        assert_eq!(s.column("company").unwrap().ty, ColType::Str);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        TableSchema::new("t", &[("a", ColType::Int), ("a", ColType::Str)]);
    }

    #[test]
    fn schema_display() {
        assert_eq!(
            movies().to_string(),
            "movies(title TEXT, year INT, company TEXT)"
        );
    }
}

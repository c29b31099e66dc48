//! Relation schemas and tuples.

use crate::value::{Value, ValueType};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

/// An ordered list of columns describing one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names — schemas are static program data.
    pub fn new(columns: &[(&str, ValueType)]) -> Self {
        let cols: Vec<Column> = columns
            .iter()
            .map(|(n, t)| Column {
                name: n.to_string(),
                ty: *t,
            })
            .collect();
        for (i, c) in cols.iter().enumerate() {
            assert!(
                !cols[..i].iter().any(|p| p.name == c.name),
                "duplicate column name {:?}",
                c.name
            );
        }
        Schema { columns: cols }
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Does `tuple` conform to this schema (arity and types)?
    pub fn admits(&self, tuple: &Tuple) -> bool {
        tuple.values().len() == self.arity()
            && tuple
                .values()
                .iter()
                .zip(&self.columns)
                .all(|(v, c)| v.value_type() == c.ty)
    }
}

/// A row: an ordered list of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The values in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Replace the value at column `idx`.
    pub fn set(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;

    fn person_schema() -> Schema {
        Schema::new(&[
            ("oid", ValueType::Oid),
            ("name", ValueType::Str),
            ("age", ValueType::Int),
        ])
    }

    #[test]
    fn column_lookup() {
        let s = person_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.columns()[1].name, "name");
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_panic() {
        Schema::new(&[("a", ValueType::Int), ("a", ValueType::Str)]);
    }

    #[test]
    fn admits_checks_arity_and_types() {
        let s = person_schema();
        let good = Tuple::new(vec![
            Value::Oid(Oid::new(1, 1)),
            Value::from("Mary"),
            Value::Int(62),
        ]);
        assert!(s.admits(&good));
        let short = Tuple::new(vec![Value::Int(1)]);
        assert!(!s.admits(&short));
        let wrong_ty = Tuple::new(vec![Value::Int(1), Value::from("Mary"), Value::Int(62)]);
        assert!(!s.admits(&wrong_ty));
    }

    #[test]
    fn set_replaces_in_place() {
        let mut t = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        t.set(1, Value::Int(99));
        assert_eq!(t.get(1).as_int(), Some(99));
    }
}

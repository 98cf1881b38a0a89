use std::collections::HashMap;

use ftpm_timeseries::{SymbolId, VariableId};

/// Dense identifier of a temporal event — a `(variable, symbol)` pair such
/// as "Kitchen = On" (`K_On` in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u32);

/// Interns `(variable, symbol)` pairs into dense [`EventId`]s and keeps
/// their display labels.
///
/// Every distinct event of the database gets one id; ids are dense so that
/// miners can use them as vector indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventRegistry {
    labels: Vec<String>,
    variables: Vec<VariableId>,
    symbols: Vec<SymbolId>,
    index: HashMap<(VariableId, SymbolId), EventId>,
}

impl EventRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an event, returning its id. `label` is only used the first
    /// time a pair is seen.
    pub fn intern(
        &mut self,
        variable: VariableId,
        symbol: SymbolId,
        label: impl FnOnce() -> String,
    ) -> EventId {
        if let Some(&id) = self.index.get(&(variable, symbol)) {
            return id;
        }
        let id = EventId(self.labels.len() as u32);
        self.labels.push(label());
        self.variables.push(variable);
        self.symbols.push(symbol);
        self.index.insert((variable, symbol), id);
        id
    }

    /// Looks up an event without interning.
    pub fn get(&self, variable: VariableId, symbol: SymbolId) -> Option<EventId> {
        self.index.get(&(variable, symbol)).copied()
    }

    /// Finds an event by its display label (e.g. `"K=On"`).
    pub fn lookup_label(&self, label: &str) -> Option<EventId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| EventId(i as u32))
    }

    /// Display label of an event.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn label(&self, id: EventId) -> &str {
        &self.labels[id.0 as usize]
    }

    /// The variable an event belongs to — used by A-HTPGM to check the
    /// correlation graph edge between the series of two events (Alg. 2,
    /// line 10).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn variable(&self, id: EventId) -> VariableId {
        self.variables[id.0 as usize]
    }

    /// The symbol of an event.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn symbol(&self, id: EventId) -> SymbolId {
        self.symbols[id.0 as usize]
    }

    /// Number of distinct events (`m` in the complexity analyses).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff no event has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over all event ids.
    pub fn ids(&self) -> impl Iterator<Item = EventId> {
        (0..self.labels.len() as u32).map(EventId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "K=On".into());
        let b = reg.intern(VariableId(0), SymbolId(1), || "ignored".into());
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.label(a), "K=On");
    }

    #[test]
    fn distinct_pairs_get_distinct_ids() {
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(0), || "K=Off".into());
        let b = reg.intern(VariableId(0), SymbolId(1), || "K=On".into());
        let c = reg.intern(VariableId(1), SymbolId(0), || "T=Off".into());
        assert_eq!(reg.len(), 3);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(reg.variable(c), VariableId(1));
        assert_eq!(reg.symbol(b), SymbolId(1));
    }

    #[test]
    fn lookup_by_label() {
        let mut reg = EventRegistry::new();
        let id = reg.intern(VariableId(2), SymbolId(1), || "M=On".into());
        assert_eq!(reg.lookup_label("M=On"), Some(id));
        assert_eq!(reg.lookup_label("M=Off"), None);
    }
}

// The labeling crate is not in the deterministic set: HashMap is fine here.
use std::collections::HashMap;

pub fn degree_index() -> HashMap<u32, u32> {
    HashMap::new()
}

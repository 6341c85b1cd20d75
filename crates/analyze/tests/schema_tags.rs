//! The two schema tags `analyze::ingest` does not take from their writers'
//! constants (the library links neither writer; here both are
//! dev-dependencies) are pinned to those constants, so a renamed or bumped
//! tag fails here instead of orphaning the reader.

use smst_analyze::ingest::{SCHEMA_CAMPAIGN, SCHEMA_WIRE};

#[test]
fn unlinkable_writers_emit_the_tags_ingest_accepts() {
    assert_eq!(SCHEMA_CAMPAIGN, smst_adversary::artifact::SCHEMA);
    assert_eq!(SCHEMA_WIRE, smst_net::wire::WIRE_SCHEMA);
}

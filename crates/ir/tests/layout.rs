//! The in-memory layout of the IR's hot types.
//!
//! A function's instruction arena dominates the memory of a check, so the
//! sizes of `Inst` and of the operands inside it are pinned here: a field
//! that makes one grow again fails this test rather than showing up as a
//! few MiB of peak memory later. `Type` is a 4-byte handle into the
//! module's type table, which lets `Value` be 16 bytes and `Copy`.

use safeflow_ir::{Inst, InstKind, Type, Value};
use std::mem::size_of;

/// Compiles only for `Copy` types.
const fn assert_copy<T: Copy>() {}

const _: () = {
    assert_copy::<Type>();
    assert_copy::<Value>();
};

#[test]
fn ir_types_stay_compact() {
    assert_eq!(size_of::<Type>(), 4, "Type is a table handle");
    assert_eq!(size_of::<Value>(), 16, "Value is a constant and its type, or an id");
    assert!(size_of::<InstKind>() <= 40, "InstKind is {} bytes", size_of::<InstKind>());
    assert!(size_of::<Inst>() <= 56, "Inst is {} bytes", size_of::<Inst>());
}

//! One heap block per group of per-node columns.
//!
//! A group declared with `node_columns!` holds every column in a single
//! allocation: a [`Block`] laid out column after column, each column
//! aligned for its type, and one [`Column`] per field that dereferences to
//! its own run of the block as a slice. A cluster then costs two
//! allocations per group (the block and its shared count) instead of one
//! per column.

use std::alloc::{self, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;

/// The allocation behind one group's columns. Each [`Column`] holds a
/// count on it, so the memory lives as long as any column does, whichever
/// struct a column has been moved or swapped into.
pub(crate) struct Block {
    ptr: NonNull<u8>,
    layout: Layout,
}

// SAFETY: `ptr` and `layout` describe plain owned memory that `Block`
// only allocates and frees; every read or write of it goes through a
// `Column`, whose own `Send`/`Sync` bounds on `T` govern sharing it.
unsafe impl Send for Block {}
// SAFETY: as above; `&Block` reads or writes nothing.
unsafe impl Sync for Block {}

impl Block {
    /// Allocate `layout` (nothing when it is empty).
    pub(crate) fn new(layout: Layout) -> Self {
        if layout.size() == 0 {
            return Block { ptr: NonNull::dangling(), layout };
        }
        // SAFETY: the layout has a non-zero size.
        let raw = unsafe { alloc::alloc(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| alloc::handle_alloc_error(layout));
        Block { ptr, layout }
    }

    /// The column of `len` copies of `fill` at byte `offset`.
    ///
    /// # Safety
    ///
    /// `offset` must be where this block's layout places an array of `len`
    /// values of `T` (so in bounds and aligned for `T`), and no other
    /// column may be carved from that range.
    pub(crate) unsafe fn column<T: Copy>(
        self: &Arc<Self>,
        offset: usize,
        len: usize,
        fill: T,
    ) -> Column<T> {
        let block = Arc::clone(self);
        if len == 0 || size_of::<T>() == 0 {
            return Column { ptr: NonNull::dangling(), len, _block: block };
        }
        debug_assert!(offset + len * size_of::<T>() <= self.layout.size());
        // SAFETY: the caller puts `[offset, offset + len · size_of::<T>())`
        // inside this (non-empty) block, aligned for `T`.
        let ptr = unsafe { self.ptr.add(offset) }.cast::<T>();
        debug_assert!(ptr.is_aligned());
        for k in 0..len {
            // SAFETY: `k < len`, so the write stays inside the column.
            unsafe { ptr.add(k).write(fill) };
        }
        Column { ptr, len, _block: block }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        if self.layout.size() != 0 {
            // SAFETY: allocated in `new` with this same layout.
            unsafe { alloc::dealloc(self.ptr.as_ptr(), self.layout) };
        }
    }
}

/// One column of a group: `len` initialized values of `T` inside a
/// [`Block`], reached as a slice. It is the only handle on that run (it is
/// not `Clone`, and no two columns of a block overlap), and its count
/// keeps the block alive.
pub(crate) struct Column<T> {
    ptr: NonNull<T>,
    len: usize,
    _block: Arc<Block>,
}

// SAFETY: `ptr`/`len` are the only handle on their run of the block, so
// sending the column sends those `T`s; `_block` is an `Arc` of a `Send +
// Sync` block.
unsafe impl<T: Send> Send for Column<T> {}
// SAFETY: `&Column` gives only `&[T]`, which is shareable when `T: Sync`;
// `_block` as above.
unsafe impl<T: Sync> Sync for Column<T> {}

impl<T> Deref for Column<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `len` values initialized by `Block::column`, inside the
        // block `_block` keeps alive, and covered by no other column.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for Column<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`; `&mut self` is the only way to this run.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: fmt::Debug> fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Where each of the `layouts`, laid out one after the other, starts, and
/// the layout of the whole.
pub(crate) fn carve<const N: usize>(layouts: [Layout; N]) -> ([usize; N], Layout) {
    let mut whole = Layout::new::<()>();
    let offsets = layouts.map(|column| {
        let (grown, at) = whole.extend(column).expect("a column group fits in memory");
        whole = grown;
        at
    });
    (offsets, whole.pad_to_align())
}

/// Declares a struct of per-node columns, every field a [`Column`] indexed
/// by node id and all of them in one [`Block`]: its `with_len`
/// constructor (every value its type's default), `Clone`, `Debug` (the
/// columns as lists), and `heap_bytes`, `len × size_of` summed over every
/// column declared, so a column added here is counted where it is
/// declared.
macro_rules! node_columns {
    ($(#[$attr:meta])* $vis:vis struct $name:ident {
        $($(#[$field_attr:meta])* $field:ident: $ty:ty,)*
    }) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* pub(crate) $field: $crate::column::Column<$ty>,)*
        }

        impl $name {
            /// `n` nodes in one block, every value its type's default.
            pub(crate) fn with_len(n: usize) -> Self {
                let (offsets, layout) = $crate::column::carve([$(
                    std::alloc::Layout::array::<$ty>(n).expect("a column fits in memory"),
                )*]);
                let block = std::sync::Arc::new($crate::column::Block::new(layout));
                let mut offsets = offsets.into_iter();
                $name {
                    // SAFETY: `carve` placed one `n`-long array of each
                    // column's type at each offset, in declaration order,
                    // inside `layout` and disjoint from the others.
                    $($field: unsafe {
                        let at = offsets.next().expect("one offset per column");
                        block.column(at, n, <$ty>::default())
                    },)*
                }
            }

            /// Heap bytes of the columns: `len × size_of` of each.
            pub(crate) fn heap_bytes(&self) -> usize {
                0 $(+ self.$field.len() * std::mem::size_of::<$ty>())*
            }
        }

        impl Clone for $name {
            fn clone(&self) -> Self {
                let mut copy = Self::with_len(0 $(.max(self.$field.len()))*);
                $(copy.$field.copy_from_slice(&self.$field);)*
                copy
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name))
                    $(.field(stringify!($field), &self.$field))*
                    .finish()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    node_columns! {
        /// Columns of every width and alignment the groups use, in an
        /// order that needs padding between them.
        struct Mixed {
            flag: bool,
            wide: f64,
            narrow: u32,
            time: des::SimTime,
        }
    }

    fn mixed(n: usize) -> Mixed {
        let mut m = Mixed::with_len(n);
        for k in 0..n {
            m.flag[k] = k % 2 == 0;
            m.wide[k] = k as f64 * 0.5;
            m.narrow[k] = k as u32 * 3;
            m.time[k] = des::SimTime::from_nanos(k as u64 * 7);
        }
        m
    }

    #[test]
    fn columns_are_disjoint_initialized_and_aligned() {
        for n in [0usize, 1, 2, 3, 7, 8, 63, 64, 65, 4392] {
            let fresh = Mixed::with_len(n);
            assert!(fresh.flag.iter().all(|&f| !f) && fresh.wide.iter().all(|&w| w == 0.0));
            assert!(
                fresh.narrow.iter().all(|&x| x == 0)
                    && fresh.time.iter().all(|t| t.as_nanos() == 0)
            );
            let mut m = mixed(n);
            assert_eq!(m.heap_bytes(), n * (1 + 8 + 4 + 8));
            for k in 0..n {
                assert_eq!(m.flag[k], k % 2 == 0);
                assert_eq!(m.wide[k], k as f64 * 0.5);
                assert_eq!(m.narrow[k], k as u32 * 3);
                assert_eq!(m.time[k], des::SimTime::from_nanos(k as u64 * 7));
            }
            // Writing every column leaves every other one as it was.
            m.flag.fill(true);
            m.wide.fill(-1.0);
            m.narrow.fill(u32::MAX);
            assert!(m.time.iter().enumerate().all(|(k, t)| t.as_nanos() == k as u64 * 7));
            assert!(m.flag.iter().all(|&f| f) && m.wide.iter().all(|&w| w == -1.0));
            assert!(m.narrow.iter().all(|&x| x == u32::MAX));
        }
    }

    #[test]
    fn a_clone_is_a_separate_equal_group() {
        let a = mixed(65);
        let mut b = a.clone();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        b.wide[64] = 9.0;
        assert_eq!(a.wide[64], 32.0);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        // Groups move across threads and drop there.
        std::thread::spawn(move || assert_eq!(b.narrow[64], 192)).join().expect("joined");
    }

    #[test]
    fn a_column_swapped_into_another_group_keeps_its_block() {
        let (mut a, mut b) = (mixed(8), mixed(3));
        std::mem::swap(&mut a.wide, &mut b.wide);
        drop(a);
        assert_eq!(b.wide.len(), 8);
        assert_eq!(b.wide[7], 3.5);
        b.wide[7] = 1.0;
        assert_eq!((b.narrow[2], b.wide[7]), (6, 1.0));
    }

    #[test]
    fn debug_lists_each_column_like_a_vec() {
        let m = mixed(2);
        let want = format!(
            "Mixed {{ flag: {:?}, wide: {:?}, narrow: {:?}, time: {:?} }}",
            vec![true, false],
            vec![0.0, 0.5],
            vec![0u32, 3],
            vec![des::SimTime::ZERO, des::SimTime::from_nanos(7)],
        );
        assert_eq!(format!("{m:?}"), want);
    }
}

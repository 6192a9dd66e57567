//! Host and device memory: typed buffers of plain 64-bit cells.
//!
//! Every allocation (`malloc`, `cudaMalloc`, stack arrays, `__shared__`
//! arrays, OpenMP-mapped sections) becomes a [`Buffer`] of `Cell<u64>`
//! slots. A run's memory belongs to the thread executing it: the simulators
//! run every launch on that thread, so the buffer table is a `RefCell` and
//! the cells are plain `Cell`s — no locks, no atomics, no unsafe code.

use std::cell::{Cell, RefCell};

use lassi_lang::Type;

use crate::error::ExecError;
use crate::value::{PtrValue, Value};

/// Identifier of a buffer inside a [`Memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub usize);

/// Which memory space a buffer lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Ordinary host memory (`malloc`, stack arrays).
    Host,
    /// Device global memory (`cudaMalloc`, OpenMP mapped data).
    Device,
    /// Per-block shared memory (`__shared__`).
    Shared,
}

/// A single allocation.
#[derive(Debug)]
pub struct Buffer {
    /// Best-effort name for diagnostics (the variable it was first assigned to).
    pub name: String,
    /// Element type of the buffer.
    pub elem: Type,
    /// Memory space.
    pub space: MemSpace,
    /// Whether the buffer has been freed.
    pub freed: bool,
    /// Host buffers mapped to the device (OpenMP `map`) are accessible from
    /// device code as well.
    pub mapped: bool,
    /// Byte size originally requested (for `malloc` retyping).
    raw_bytes: u64,
    /// Element count. It outlives `data`: freeing releases the cells but
    /// diagnostics and `map` byte accounting still see the allocation's size.
    len: usize,
    data: Vec<Cell<u64>>,
}

impl Buffer {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes, according to the element type.
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.elem.size_bytes().max(1)
    }

    fn encode(&self, value: &Value) -> u64 {
        match self.elem {
            Type::Int | Type::Long | Type::Bool => value.as_int() as u64,
            Type::Float => (value.as_float() as f32 as f64).to_bits(),
            _ => value.as_float().to_bits(),
        }
    }

    fn decode(&self, bits: u64) -> Value {
        match self.elem {
            Type::Int | Type::Long | Type::Bool => Value::Int(bits as i64),
            _ => Value::Float(f64::from_bits(bits)),
        }
    }

    fn load_raw(&self, idx: usize) -> Value {
        self.decode(self.data[idx].get())
    }

    fn store_raw(&self, idx: usize, value: &Value) {
        self.data[idx].set(self.encode(value));
    }

    /// Position (counted from `offset`) of the first of `count` elements
    /// starting at `offset` that lies outside the buffer, if any.
    fn first_out_of_range(&self, offset: i64, count: i64) -> Option<i64> {
        let i = if offset < 0 {
            0
        } else {
            (self.len as i64 - offset).max(0)
        };
        (i < count).then_some(i)
    }
}

/// Statistics about memory usage of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryStats {
    /// Total number of allocations performed.
    pub allocations: u64,
    /// Total bytes allocated over the lifetime of the run.
    pub allocated_bytes: u64,
    /// Bytes explicitly copied by `cudaMemcpy`/`memcpy`.
    pub copied_bytes: u64,
}

/// The memory of one program execution. All methods take `&self`; the buffer
/// table and the cells use interior mutability, so host code, device threads
/// and OpenMP workers of one run share a plain `&Memory` on one thread.
#[derive(Debug, Default)]
pub struct Memory {
    buffers: RefCell<Vec<Buffer>>,
    stats: Cell<MemoryStats>,
}

impl Memory {
    /// Create an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Current usage statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats.get()
    }

    fn update_stats(&self, f: impl FnOnce(&mut MemoryStats)) {
        let mut stats = self.stats.get();
        f(&mut stats);
        self.stats.set(stats);
    }

    /// Allocate `len` elements of `elem` in `space`, returning a pointer to
    /// element 0. Contents are zero-initialized.
    pub fn alloc(&self, name: &str, elem: Type, len: usize, space: MemSpace) -> PtrValue {
        let raw_bytes = len as u64 * elem.size_bytes().max(1);
        let len = len.max(1);
        let mut buffers = self.buffers.borrow_mut();
        buffers.push(Buffer {
            name: name.to_string(),
            elem,
            space,
            freed: false,
            mapped: false,
            raw_bytes,
            len,
            data: vec![Cell::new(0); len],
        });
        let id = BufferId(buffers.len() - 1);
        self.update_stats(|s| {
            s.allocations += 1;
            s.allocated_bytes += raw_bytes;
        });
        PtrValue {
            buffer: id,
            offset: 0,
            space,
        }
    }

    /// Allocate a raw byte region (`malloc`) whose element type is not yet
    /// known; it is retyped on the first pointer cast.
    pub fn alloc_bytes(&self, name: &str, bytes: u64, space: MemSpace) -> PtrValue {
        let len = (bytes as usize).div_ceil(8).max(1);
        let ptr = self.alloc(name, Type::Double, len, space);
        self.buffers.borrow_mut()[ptr.buffer.0].raw_bytes = bytes;
        ptr
    }

    /// Retype a buffer allocated with [`Memory::alloc_bytes`] once the program
    /// casts the `malloc` result to a concrete pointer type.
    pub fn retype(&self, id: BufferId, elem: Type) {
        let mut buffers = self.buffers.borrow_mut();
        if let Some(buf) = buffers.get_mut(id.0) {
            if buf.elem == elem || elem == Type::Void {
                return;
            }
            buf.len = (buf.raw_bytes / elem.size_bytes().max(1)).max(1) as usize;
            buf.elem = elem;
            if !buf.freed {
                buf.data.resize(buf.len, Cell::new(0));
            }
        }
    }

    /// Rename a buffer for nicer diagnostics once it is bound to a variable.
    pub fn rename(&self, id: BufferId, name: &str) {
        let mut buffers = self.buffers.borrow_mut();
        if let Some(buf) = buffers.get_mut(id.0) {
            if buf.name.is_empty() || buf.name == "<anon>" {
                buf.name = name.to_string();
            }
        }
    }

    /// Free a buffer, releasing its cells. The pointer must reference
    /// element 0.
    pub fn free(&self, ptr: &PtrValue, line: u32) -> Result<(), ExecError> {
        if ptr.offset != 0 {
            return Err(ExecError::InvalidFree { line });
        }
        let mut buffers = self.buffers.borrow_mut();
        match buffers.get_mut(ptr.buffer.0) {
            Some(buf) if !buf.freed => {
                buf.freed = true;
                buf.data = Vec::new();
                Ok(())
            }
            _ => Err(ExecError::InvalidFree { line }),
        }
    }

    /// Element count of a buffer (0 if unknown).
    pub fn buffer_len(&self, id: BufferId) -> usize {
        self.buffers.borrow().get(id.0).map_or(0, |b| b.len())
    }

    /// Element type of a buffer.
    pub fn buffer_elem(&self, id: BufferId) -> Option<Type> {
        self.buffers.borrow().get(id.0).map(|b| b.elem.clone())
    }

    fn with_access<R>(
        &self,
        ptr: &PtrValue,
        index: i64,
        from_device: bool,
        line: u32,
        f: impl FnOnce(&Buffer, usize) -> R,
    ) -> Result<R, ExecError> {
        let buffers = self.buffers.borrow();
        let buf = buffers
            .get(ptr.buffer.0)
            .ok_or(ExecError::NullPointer { line })?;
        if buf.freed {
            return Err(ExecError::UseAfterFree {
                buffer: buf.name.clone(),
                line,
            });
        }
        match (buf.space, from_device) {
            (MemSpace::Host, true) if buf.mapped => {}
            (MemSpace::Host, true) => {
                return Err(ExecError::IllegalMemorySpace {
                    buffer: buf.name.clone(),
                    from_device: true,
                    line,
                })
            }
            (MemSpace::Device, false) | (MemSpace::Shared, false) => {
                return Err(ExecError::IllegalMemorySpace {
                    buffer: buf.name.clone(),
                    from_device: false,
                    line,
                })
            }
            _ => {}
        }
        let idx = ptr.offset + index;
        if idx < 0 || idx as usize >= buf.len() {
            return Err(ExecError::OutOfBounds {
                buffer: buf.name.clone(),
                index: idx,
                len: buf.len(),
                line,
            });
        }
        Ok(f(buf, idx as usize))
    }

    /// Load `ptr[index]`.
    pub fn load(
        &self,
        ptr: &PtrValue,
        index: i64,
        from_device: bool,
        line: u32,
    ) -> Result<Value, ExecError> {
        self.with_access(ptr, index, from_device, line, |buf, idx| buf.load_raw(idx))
    }

    /// Store `value` into `ptr[index]`.
    pub fn store(
        &self,
        ptr: &PtrValue,
        index: i64,
        value: &Value,
        from_device: bool,
        line: u32,
    ) -> Result<(), ExecError> {
        self.with_access(ptr, index, from_device, line, |buf, idx| {
            buf.store_raw(idx, value)
        })
    }

    /// Load `ptr[index]`, also returning the buffer's element size in bytes
    /// for traffic accounting — one buffer-table lock acquisition instead of
    /// a separate `buffer_elem` round-trip per access.
    pub fn load_counted(
        &self,
        ptr: &PtrValue,
        index: i64,
        from_device: bool,
        line: u32,
    ) -> Result<(Value, u64), ExecError> {
        self.with_access(ptr, index, from_device, line, |buf, idx| {
            (buf.load_raw(idx), buf.elem.size_bytes())
        })
    }

    /// Store `value` into `ptr[index]`, returning the element size in bytes.
    pub fn store_counted(
        &self,
        ptr: &PtrValue,
        index: i64,
        value: &Value,
        from_device: bool,
        line: u32,
    ) -> Result<u64, ExecError> {
        self.with_access(ptr, index, from_device, line, |buf, idx| {
            buf.store_raw(idx, value);
            buf.elem.size_bytes()
        })
    }

    /// Atomic add (`atomicAdd` / `#pragma omp atomic`): returns the old value.
    pub fn atomic_add(
        &self,
        ptr: &PtrValue,
        index: i64,
        delta: &Value,
        from_device: bool,
        line: u32,
    ) -> Result<Value, ExecError> {
        self.with_access(ptr, index, from_device, line, |buf, idx| {
            let old = buf.load_raw(idx);
            let new = match buf.elem {
                Type::Int | Type::Long | Type::Bool => Value::Int(old.as_int() + delta.as_int()),
                _ => Value::Float(old.as_float() + delta.as_float()),
            };
            buf.store_raw(idx, &new);
            old
        })
    }

    /// Atomic min/max (`atomicMin`/`atomicMax`): returns the old value.
    pub fn atomic_minmax(
        &self,
        ptr: &PtrValue,
        index: i64,
        operand: &Value,
        is_max: bool,
        from_device: bool,
        line: u32,
    ) -> Result<Value, ExecError> {
        self.with_access(ptr, index, from_device, line, |buf, idx| {
            let old = buf.load_raw(idx);
            let new = match buf.elem {
                Type::Int | Type::Long | Type::Bool => {
                    let (a, b) = (old.as_int(), operand.as_int());
                    Value::Int(if is_max { a.max(b) } else { a.min(b) })
                }
                _ => {
                    let (a, b) = (old.as_float(), operand.as_float());
                    Value::Float(if is_max { a.max(b) } else { a.min(b) })
                }
            };
            buf.store_raw(idx, &new);
            old
        })
    }

    /// Copy `count_bytes` from `src` to `dst` (both at their element offsets).
    /// Space-legality rules are relaxed: explicit copies are exactly how data
    /// crosses the host/device boundary. An out-of-range copy reports the
    /// first element an element-by-element copy would have faulted on.
    pub fn copy(
        &self,
        dst: &PtrValue,
        src: &PtrValue,
        count_bytes: u64,
        line: u32,
    ) -> Result<(), ExecError> {
        let buffers = self.buffers.borrow();
        let src_buf = buffers
            .get(src.buffer.0)
            .ok_or(ExecError::NullPointer { line })?;
        let dst_buf = buffers
            .get(dst.buffer.0)
            .ok_or(ExecError::NullPointer { line })?;
        for buf in [src_buf, dst_buf] {
            if buf.freed {
                return Err(ExecError::UseAfterFree {
                    buffer: buf.name.clone(),
                    line,
                });
            }
        }
        let elem_size = dst_buf
            .elem
            .size_bytes()
            .max(1)
            .min(src_buf.elem.size_bytes().max(1));
        let count = (count_bytes / elem_size) as i64;
        // At equal element positions the source is checked first.
        let src_fault = src_buf.first_out_of_range(src.offset, count);
        let dst_fault = dst_buf.first_out_of_range(dst.offset, count);
        let fault = match (src_fault, dst_fault) {
            (Some(s), Some(d)) if d < s => Some((dst_buf, dst.offset + d)),
            (Some(s), _) => Some((src_buf, src.offset + s)),
            (None, d) => d.map(|d| (dst_buf, dst.offset + d)),
        };
        if let Some((buf, index)) = fault {
            return Err(ExecError::OutOfBounds {
                buffer: buf.name.clone(),
                index,
                len: buf.len(),
                line,
            });
        }
        let (s, d) = (src.offset as usize, dst.offset as usize);
        let count = count as usize;
        for (to, from) in dst_buf.data[d..d + count]
            .iter()
            .zip(&src_buf.data[s..s + count])
        {
            to.set(dst_buf.encode(&src_buf.decode(from.get())));
        }
        drop(buffers);
        self.update_stats(|s| s.copied_bytes += count_bytes);
        Ok(())
    }

    /// Mark a host buffer as mapped to the device (OpenMP `map` clauses),
    /// making it legal to access from device code.
    pub fn set_mapped(&self, id: BufferId, mapped: bool) {
        let mut buffers = self.buffers.borrow_mut();
        if let Some(buf) = buffers.get_mut(id.0) {
            buf.mapped = mapped;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_load_store_roundtrip() {
        let mem = Memory::new();
        let p = mem.alloc("a", Type::Double, 8, MemSpace::Host);
        mem.store(&p, 3, &Value::Float(2.5), false, 1).unwrap();
        assert_eq!(mem.load(&p, 3, false, 1).unwrap(), Value::Float(2.5));
        assert_eq!(mem.load(&p, 0, false, 1).unwrap(), Value::Float(0.0));
    }

    #[test]
    fn int_buffers_truncate() {
        let mem = Memory::new();
        let p = mem.alloc("idx", Type::Int, 4, MemSpace::Host);
        mem.store(&p, 0, &Value::Float(3.9), false, 1).unwrap();
        assert_eq!(mem.load(&p, 0, false, 1).unwrap(), Value::Int(3));
    }

    #[test]
    fn float_buffers_round_to_f32() {
        let mem = Memory::new();
        let p = mem.alloc("x", Type::Float, 1, MemSpace::Host);
        let v = 0.123456789012345_f64;
        mem.store(&p, 0, &Value::Float(v), false, 1).unwrap();
        assert_eq!(
            mem.load(&p, 0, false, 1).unwrap(),
            Value::Float(v as f32 as f64)
        );
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mem = Memory::new();
        let p = mem.alloc("a", Type::Int, 4, MemSpace::Host);
        let err = mem.load(&p, 4, false, 9).unwrap_err();
        assert_eq!(err.category(), "out_of_bounds");
        let err = mem.load(&p, -1, false, 9).unwrap_err();
        assert_eq!(err.category(), "out_of_bounds");
    }

    #[test]
    fn device_buffer_not_host_accessible() {
        let mem = Memory::new();
        let p = mem.alloc("d_a", Type::Float, 4, MemSpace::Device);
        let err = mem.load(&p, 0, false, 3).unwrap_err();
        assert_eq!(err.category(), "illegal_memory_space");
        assert!(mem.load(&p, 0, true, 3).is_ok());
    }

    #[test]
    fn host_buffer_not_device_accessible_unless_mapped() {
        let mem = Memory::new();
        let p = mem.alloc("h_a", Type::Float, 4, MemSpace::Host);
        assert!(mem.load(&p, 0, true, 3).is_err());
        mem.set_mapped(p.buffer, true);
        assert!(mem.load(&p, 0, true, 3).is_ok());
    }

    #[test]
    fn use_after_free_detected() {
        let mem = Memory::new();
        let p = mem.alloc("a", Type::Int, 4, MemSpace::Host);
        mem.free(&p, 5).unwrap();
        assert_eq!(
            mem.load(&p, 0, false, 6).unwrap_err().category(),
            "use_after_free"
        );
        assert_eq!(mem.free(&p, 7).unwrap_err().category(), "invalid_free");
    }

    #[test]
    fn free_requires_base_pointer() {
        let mem = Memory::new();
        let mut p = mem.alloc("a", Type::Int, 4, MemSpace::Host);
        p.offset = 2;
        assert_eq!(mem.free(&p, 1).unwrap_err().category(), "invalid_free");
    }

    #[test]
    fn atomic_add_accumulates() {
        let mem = Memory::new();
        let p = mem.alloc("sum", Type::Double, 1, MemSpace::Device);
        for _ in 0..10 {
            mem.atomic_add(&p, 0, &Value::Float(1.5), true, 1).unwrap();
        }
        assert_eq!(mem.load(&p, 0, true, 1).unwrap(), Value::Float(15.0));
    }

    fn live_cells(mem: &Memory) -> usize {
        mem.buffers.borrow().iter().map(|b| b.data.len()).sum()
    }

    #[test]
    fn free_releases_cells_but_keeps_the_buffer_shape() {
        let mem = Memory::new();
        let mut last = None;
        for _ in 0..40 {
            let p = mem.alloc("row", Type::Long, 400_000, MemSpace::Device);
            assert!(live_cells(&mem) <= 400_000);
            mem.free(&p, 1).unwrap();
            last = Some(p);
        }
        assert_eq!(live_cells(&mem), 0);
        let p = last.unwrap();
        assert_eq!(mem.buffer_len(p.buffer), 400_000);
        assert_eq!(mem.stats().allocated_bytes, 40 * 400_000 * 8);
        let err = mem.load(&p, 7, true, 2).unwrap_err();
        assert_eq!(err.category(), "use_after_free");
        assert!(err.to_string().contains("row"));
        let h = mem.alloc("h", Type::Long, 4, MemSpace::Host);
        assert_eq!(
            mem.copy(&h, &p, 32, 3).unwrap_err().category(),
            "use_after_free"
        );
    }

    #[test]
    fn atomic_minmax() {
        let mem = Memory::new();
        let p = mem.alloc("m", Type::Int, 1, MemSpace::Device);
        mem.store(&p, 0, &Value::Int(5), true, 1).unwrap();
        mem.atomic_minmax(&p, 0, &Value::Int(9), true, true, 1)
            .unwrap();
        assert_eq!(mem.load(&p, 0, true, 1).unwrap(), Value::Int(9));
        mem.atomic_minmax(&p, 0, &Value::Int(2), false, true, 1)
            .unwrap();
        assert_eq!(mem.load(&p, 0, true, 1).unwrap(), Value::Int(2));
    }

    #[test]
    fn copy_between_spaces() {
        let mem = Memory::new();
        let h = mem.alloc("h", Type::Float, 4, MemSpace::Host);
        let d = mem.alloc("d", Type::Float, 4, MemSpace::Device);
        for i in 0..4 {
            mem.store(&h, i, &Value::Float(i as f64), false, 1).unwrap();
        }
        mem.copy(&d, &h, 16, 1).unwrap();
        assert_eq!(mem.load(&d, 3, true, 1).unwrap(), Value::Float(3.0));
        assert_eq!(mem.stats().copied_bytes, 16);
    }

    #[test]
    fn copy_out_of_bounds_detected() {
        let mem = Memory::new();
        let h = mem.alloc("h", Type::Float, 4, MemSpace::Host);
        let d = mem.alloc("d", Type::Float, 2, MemSpace::Device);
        assert_eq!(
            mem.copy(&d, &h, 16, 1).unwrap_err(),
            ExecError::OutOfBounds {
                buffer: "d".into(),
                index: 2,
                len: 2,
                line: 1
            }
        );
        // When both sides fault at the same element, the source is reported.
        let (mut src, mut dst) = (d, h);
        src.offset = 1;
        dst.offset = 3;
        assert_eq!(
            mem.copy(&dst, &src, 16, 1).unwrap_err(),
            ExecError::OutOfBounds {
                buffer: "d".into(),
                index: 2,
                len: 2,
                line: 1
            }
        );
        // Otherwise the earlier fault wins.
        dst.offset = -1;
        assert_eq!(
            mem.copy(&dst, &src, 16, 1).unwrap_err(),
            ExecError::OutOfBounds {
                buffer: "h".into(),
                index: -1,
                len: 4,
                line: 1
            }
        );
    }

    #[test]
    fn retype_from_malloc() {
        let mem = Memory::new();
        let p = mem.alloc_bytes("a", 16, MemSpace::Host);
        mem.retype(p.buffer, Type::Float);
        assert_eq!(mem.buffer_len(p.buffer), 4);
        assert_eq!(mem.buffer_elem(p.buffer), Some(Type::Float));
    }

    #[test]
    fn stats_track_allocations() {
        let mem = Memory::new();
        mem.alloc("a", Type::Double, 10, MemSpace::Host);
        mem.alloc("b", Type::Int, 10, MemSpace::Device);
        let stats = mem.stats();
        assert_eq!(stats.allocations, 2);
        assert_eq!(stats.allocated_bytes, 80 + 40);
    }
}

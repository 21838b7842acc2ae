//! Predecoded instruction cache — the interpreter's fast path.
//!
//! Real dynamic-binary-rewriting engines decode each instruction once and
//! dispatch on the predecoded form thereafter. This side structure does the
//! same for the simulator: a lazily-filled, paged array of decoded
//! [`Inst`]s (plus their precomputed cycle costs) indexed by `pc >> 2`, so
//! the hot loop replaces a bounds/alignment-checked `Memory::read_u32` +
//! full `decode()` with one array load.
//!
//! Correctness under self-modifying code: the softcache cache controller
//! backpatches branch words and miss stubs at runtime, so [`Memory`] keeps
//! a generation counter and dirty span over its watched code ranges (see
//! [`Memory::set_code_watch`]). [`DecodeCache::sync`] compares generations
//! and clears exactly the slots of the words overlapping the dirty span — a
//! stale decode can therefore never execute, and a one-word backpatch
//! leaves every other predecoded word of its page in place. PCs outside
//! the watched ranges are decoded on every fetch (never memoised), so
//! narrowing the watch can only cost speed, never correctness.

use crate::cost::CostModel;
use crate::cpu::SimError;
use crate::mem::Memory;
use softcache_isa::decode;
use softcache_isa::inst::Inst;

/// Instruction slots per page: 1024 slots = 4 KiB of code.
const PAGE_SLOTS: usize = 1024;
const PAGE_SHIFT: u32 = 10;

/// One predecoded instruction with its cycle costs under the cost model
/// captured at fill time. Costs are stored compressed to keep the slot at
/// 16 bytes (half the hot loop's cache traffic of an `Option`-per-slot
/// layout); `cost == EMPTY` marks an unfilled slot, and instructions whose
/// cost will not fit are simply never memoised.
#[derive(Clone, Copy)]
struct Slot {
    inst: Inst,
    /// Cycles when not taken (all instructions); `EMPTY` = unfilled.
    cost: u32,
    /// Cycles when a conditional branch is taken.
    cost_taken: u32,
}

const EMPTY: u32 = u32::MAX;
const EMPTY_SLOT: Slot = Slot {
    inst: Inst::Nop,
    cost: EMPTY,
    cost_taken: 0,
};

type Page = Box<[Slot; PAGE_SLOTS]>;

/// Paged side-array of predecoded instructions. Owned by a
/// [`crate::Machine`]; one per simulated core.
pub struct DecodeCache {
    pages: Vec<Option<Page>>,
    /// The [`Memory::code_gen`] value the cached contents are valid for.
    gen: u64,
    /// The cost model the cached cycle costs were computed under.
    cost: CostModel,
}

impl DecodeCache {
    /// An empty cache valid for generation 0 under `cost`.
    pub fn new(cost: CostModel) -> DecodeCache {
        DecodeCache {
            pages: Vec::new(),
            gen: 0,
            cost,
        }
    }

    /// Drop every cached decode.
    pub fn flush(&mut self) {
        self.pages.clear();
    }

    /// Bring the cache up to date with `mem`'s code generation and the
    /// current cost model. Cheap when nothing changed (two compares); on a
    /// code write, clears only the slots of the words the dirty span
    /// overlaps (a page is dropped whole only when the span covers it).
    #[inline]
    pub fn sync(&mut self, mem: &mut Memory, cost: &CostModel) {
        if self.cost != *cost {
            self.cost = *cost;
            self.flush();
        }
        self.sync_code(mem);
    }

    /// Generation-only resync (the cost model is known unchanged).
    #[inline]
    pub fn sync_code(&mut self, mem: &mut Memory) {
        if self.gen != mem.code_gen() {
            if let Some((lo, hi)) = mem.take_dirty_code() {
                self.invalidate_span(lo, hi - 1);
            }
            self.gen = mem.code_gen();
        }
    }

    /// True when `mem` has seen code writes this cache has not.
    #[inline]
    pub fn stale(&self, mem: &Memory) -> bool {
        self.gen != mem.code_gen()
    }

    /// The [`Memory::code_gen`] value the cached contents are valid for.
    /// The owning [`crate::Machine`] reads and writes the generation
    /// directly so the decode and superblock caches consume each dirty
    /// span together (the span is destroyed on take).
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.gen
    }

    /// See [`DecodeCache::generation`].
    #[inline]
    pub(crate) fn set_generation(&mut self, generation: u64) {
        self.gen = generation;
    }

    /// Does the cache hold costs for a different model than `cost`?
    #[inline]
    pub(crate) fn cost_stale(&self, cost: &CostModel) -> bool {
        self.cost != *cost
    }

    /// Adopt `cost`, dropping every memoised decode.
    pub(crate) fn set_cost(&mut self, cost: CostModel) {
        self.cost = cost;
        self.flush();
    }

    /// Clear the slots of every word overlapping the bytes `[lo, hi]`. A
    /// page the span covers completely is dropped whole; a partly covered
    /// one keeps its other slots.
    pub(crate) fn invalidate_span(&mut self, lo: u32, hi: u32) {
        let (first, last) = ((lo >> 2) as usize, (hi >> 2) as usize);
        for page_no in first >> PAGE_SHIFT..=last >> PAGE_SHIFT {
            let Some(page) = self.pages.get_mut(page_no) else {
                break;
            };
            let base = page_no << PAGE_SHIFT;
            let (from, to) = (first.max(base), last.min(base + PAGE_SLOTS - 1));
            if from == base && to == base + PAGE_SLOTS - 1 {
                *page = None;
            } else if let Some(slots) = page {
                slots[from - base..=to - base].fill(EMPTY_SLOT);
            }
        }
    }

    /// Fetch the decoded instruction and cycle-cost pair at `pc`. Must be
    /// called only on a synced cache. Errors are identical to the slow
    /// path's fetch+decode (`FetchFault` / `IllegalInst`).
    #[inline]
    pub fn fetch(&mut self, pc: u32, mem: &Memory) -> Result<(Inst, u64, u64), SimError> {
        if pc & 3 == 0 {
            let idx = (pc >> 2) as usize;
            let (page_no, slot_no) = (idx >> PAGE_SHIFT, idx & (PAGE_SLOTS - 1));
            if let Some(Some(page)) = self.pages.get(page_no) {
                let s = page[slot_no];
                if s.cost != EMPTY {
                    return Ok((s.inst, s.cost as u64, s.cost_taken as u64));
                }
            }
        }
        self.fetch_fill(pc, mem)
    }

    #[cold]
    fn fetch_fill(&mut self, pc: u32, mem: &Memory) -> Result<(Inst, u64, u64), SimError> {
        let word = mem
            .read_u32(pc)
            .map_err(|fault| SimError::FetchFault { pc, fault })?;
        let inst = decode(word).map_err(|_| SimError::IllegalInst { pc, word })?;
        let (cost, cost_taken) = self.cost.cycle_pair(inst);
        // Only memoise PCs the write barrier watches (anything else decodes
        // fresh every time and can never go stale), and only costs that fit
        // the compressed slot. Both costs use the same strict bound: `cost`
        // because `EMPTY` is the unfilled sentinel, and `cost_taken` so a
        // model landing exactly on `u32::MAX` cannot be stored truncated in
        // a slot that reads back as valid.
        if mem.is_code_watched(pc) && cost < u64::from(EMPTY) && cost_taken < u64::from(EMPTY) {
            let idx = (pc >> 2) as usize;
            let (page_no, slot_no) = (idx >> PAGE_SHIFT, idx & (PAGE_SLOTS - 1));
            if page_no >= self.pages.len() {
                self.pages.resize_with(page_no + 1, || None);
            }
            let page =
                self.pages[page_no].get_or_insert_with(|| Box::new([EMPTY_SLOT; PAGE_SLOTS]));
            page[slot_no] = Slot {
                inst,
                cost: cost as u32,
                cost_taken: cost_taken as u32,
            };
        }
        Ok((inst, cost, cost_taken))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_isa::encode;
    use softcache_isa::inst::{AluOp, MemWidth};
    use softcache_isa::reg::Reg;

    fn nop_word() -> u32 {
        encode(Inst::Nop)
    }

    fn addi(imm: i32) -> u32 {
        encode(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::T0,
            imm,
        })
    }

    #[test]
    fn caches_and_invalidates_on_write() {
        let mut mem = Memory::new(8192);
        mem.write_u32(0, addi(1)).unwrap();
        let mut dc = DecodeCache::new(CostModel::default());
        dc.sync(&mut mem, &CostModel::default());
        let (i1, _, _) = dc.fetch(0, &mem).unwrap();
        assert!(matches!(i1, Inst::AluImm { imm: 1, .. }));

        // Patch the word; the cache must observe it after sync.
        mem.write_u32(0, addi(7)).unwrap();
        assert!(dc.stale(&mem));
        dc.sync(&mut mem, &CostModel::default());
        let (i2, _, _) = dc.fetch(0, &mem).unwrap();
        assert!(matches!(i2, Inst::AluImm { imm: 7, .. }));
    }

    /// Is the slot for `pc` memoised?
    fn cached(dc: &DecodeCache, pc: u32) -> bool {
        let idx = (pc >> 2) as usize;
        dc.pages
            .get(idx >> PAGE_SHIFT)
            .and_then(Option::as_ref)
            .is_some_and(|page| page[idx & (PAGE_SLOTS - 1)].cost != EMPTY)
    }

    /// Two pages of `addi` words, all memoised by a synced cache.
    fn filled() -> (Memory, DecodeCache) {
        let mut mem = Memory::new(8192);
        for pc in (0..8192).step_by(4) {
            mem.write_u32(pc, addi(1)).unwrap();
        }
        let mut dc = DecodeCache::new(CostModel::default());
        dc.sync(&mut mem, &CostModel::default());
        for pc in (0..8192).step_by(4) {
            dc.fetch(pc, &mem).unwrap();
        }
        (mem, dc)
    }

    #[test]
    fn a_code_write_clears_only_the_words_it_touches() {
        let (mut mem, mut dc) = filled();
        mem.write_u32(8, addi(2)).unwrap();
        dc.sync(&mut mem, &CostModel::default());
        mem.store(22, MemWidth::H, 0).unwrap(); // upper half of word 20
        dc.sync(&mut mem, &CostModel::default());
        for pc in [8, 20] {
            assert!(!cached(&dc, pc), "written word {pc} cleared");
        }
        for pc in [0, 4, 12, 16, 24, 4092, 4096] {
            assert!(cached(&dc, pc), "untouched word {pc} kept");
        }
        let (i, _, _) = dc.fetch(8, &mem).unwrap();
        assert!(matches!(i, Inst::AluImm { imm: 2, .. }));
    }

    #[test]
    fn a_fully_covered_page_is_dropped_whole() {
        let (_, mut dc) = filled();
        dc.invalidate_span(0, 4095);
        assert!(dc.pages[0].is_none(), "covered page dropped");
        assert!(cached(&dc, 4096), "next page kept");
        dc.invalidate_span(4, 8191);
        assert!(
            dc.pages[1].is_none(),
            "a span covering a page reaching past its start"
        );
        // A watch change dirties everything.
        let (mut mem, mut dc) = filled();
        mem.set_code_watch([(0, u32::MAX), (0, 0)]);
        dc.sync(&mut mem, &CostModel::default());
        assert!(dc.pages.iter().all(Option::is_none));
    }

    #[test]
    fn unwatched_pcs_are_never_memoised() {
        let mut mem = Memory::new(8192);
        mem.set_code_watch([(0, 16), (0, 0)]);
        mem.write_u32(0, nop_word()).unwrap(); // watched: bumps gen
        mem.write_u32(100, addi(1)).unwrap(); // unwatched: silent

        let mut dc = DecodeCache::new(CostModel::default());
        dc.sync(&mut mem, &CostModel::default());
        let (i1, _, _) = dc.fetch(100, &mem).unwrap();
        assert!(matches!(i1, Inst::AluImm { imm: 1, .. }));

        // An unwatched write does not bump the generation — but since the
        // PC was never memoised, the next fetch still sees the new word.
        mem.write_u32(100, addi(9)).unwrap();
        assert!(!dc.stale(&mem));
        let (i2, _, _) = dc.fetch(100, &mem).unwrap();
        assert!(matches!(i2, Inst::AluImm { imm: 9, .. }));
    }

    #[test]
    fn errors_match_slow_path() {
        let mut mem = Memory::new(64);
        let mut dc = DecodeCache::new(CostModel::default());
        dc.sync(&mut mem, &CostModel::default());
        assert!(matches!(
            dc.fetch(2, &mem),
            Err(SimError::FetchFault { pc: 2, .. })
        ));
        assert!(matches!(
            dc.fetch(1 << 20, &mem),
            Err(SimError::FetchFault { .. })
        ));
        assert!(matches!(
            dc.fetch(0, &mem),
            Err(SimError::IllegalInst { pc: 0, word: 0 })
        ));
    }

    #[test]
    fn sentinel_sized_costs_are_never_memoised_truncated() {
        // Cost models whose per-instruction cycles land on or beyond the
        // u32 slot range (including exactly `EMPTY` for either field) must
        // fall through to the uncompressed path on *every* fetch — a
        // `cost_taken` of `u32::MAX` stored compressed would read back as
        // a valid slot while silently capping wider models.
        use softcache_isa::decode;
        use softcache_isa::inst::BranchCond;
        let branch = encode(Inst::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            off: 1,
        });
        let mut mem = Memory::new(64);
        mem.write_u32(0, branch).unwrap();
        for base in [
            u64::from(u32::MAX) - 1, // cost fits; cost_taken == u32::MAX
            u64::from(u32::MAX),     // cost == EMPTY
            u64::from(u32::MAX) + 7, // both beyond the slot
        ] {
            let model = CostModel {
                base,
                taken_extra: 1,
                ..CostModel::default()
            };
            let want = model.cycle_pair(decode(branch).unwrap());
            let mut dc = DecodeCache::new(model);
            dc.sync(&mut mem, &model);
            for pass in 0..2 {
                let (_, c, ct) = dc.fetch(0, &mem).unwrap();
                assert_eq!((c, ct), want, "base={base} pass={pass}");
            }
        }
    }

    #[test]
    fn cost_model_change_invalidates() {
        let mut mem = Memory::new(64);
        mem.write_u32(0, addi(1)).unwrap();
        let mut dc = DecodeCache::new(CostModel::default());
        dc.sync(&mut mem, &CostModel::default());
        let (_, c1, _) = dc.fetch(0, &mem).unwrap();
        let expensive = CostModel {
            base: 10,
            ..CostModel::default()
        };
        dc.sync(&mut mem, &expensive);
        let (_, c2, _) = dc.fetch(0, &mem).unwrap();
        assert_eq!(c1 + 9, c2);
    }
}

//! A structured-random generator of valid behavioural programs, shared by
//! the `.gasm` round-trip properties and the stream-walk reference test
//! (`crates/workload/tests/stream_reference.rs` includes this file).

use gals_isa::{ArchReg, BranchBehavior, Inst, MemBehavior, OpClass, Program, ProgramBuilder};

/// Tiny deterministic generator state (the proptest stub draws the seed;
/// everything below is a pure function of it, so failures replay).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // xorshift64*; never zero for a non-zero state.
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn prob(&mut self) -> f64 {
        // A dyadic rational in (0, 1): exact in f64, exact through Debug.
        (1 + self.below(1022)) as f64 / 1024.0
    }
}

/// Builds a random valid, fully reachable behavioural program: a linear
/// fall-through chain of blocks whose terminators (conditional branches
/// and calls) target arbitrary block leaders, closed by a `ret`.
pub fn random_program(seed: u64) -> Program {
    let mut g = Gen(seed | 1);
    let mut b = ProgramBuilder::new(g.next());

    let brs: Vec<_> = (0..1 + g.below(3))
        .map(|_| {
            let beh = match g.below(4) {
                0 => BranchBehavior::TakenProb(g.prob()),
                1 => BranchBehavior::Loop {
                    trip: 2 + g.below(50) as u32,
                },
                2 => {
                    BranchBehavior::Pattern((0..1 + g.below(8)).map(|_| g.below(2) == 0).collect())
                }
                _ => BranchBehavior::Trace((0..g.below(6)).map(|_| g.below(2) == 0).collect()),
            };
            b.add_branch_behavior(beh)
        })
        .collect();
    let mems: Vec<_> = (0..1 + g.below(3))
        .map(|_| {
            let beh = match g.below(4) {
                0 => MemBehavior::Stride {
                    base: g.below(1 << 20),
                    stride: 8 << g.below(3),
                    footprint: 64 + g.below(1 << 16),
                },
                1 => MemBehavior::Random {
                    base: g.below(1 << 20),
                    footprint: 64 + g.below(1 << 16),
                },
                2 => MemBehavior::HotCold {
                    base: g.below(1 << 20),
                    hot: 64 + g.below(1 << 10),
                    cold: 1 << 16,
                    hot_frac: g.prob(),
                },
                _ => MemBehavior::Trace((0..g.below(5)).map(|_| g.below(1 << 24)).collect()),
            };
            b.add_mem_behavior(beh)
        })
        .collect();

    let nblocks = 2 + g.below(6) as usize;
    let mut ids = Vec::new();
    // Remember what each block ends with: 0 = plain fallthrough,
    // 1 = conditional branch, 2 = call, 3 = ret.
    let mut kinds = Vec::new();
    for bi in 0..nblocks {
        let mut insts = Vec::new();
        for _ in 0..1 + g.below(4) {
            let reg = |g: &mut Gen, fp: bool| {
                if fp {
                    ArchReg::fp(g.below(32) as u8)
                } else {
                    ArchReg::int(g.below(32) as u8)
                }
            };
            let inst = match g.below(5) {
                0 => {
                    let mem = mems[g.below(mems.len() as u64) as usize];
                    let addr = (g.below(2) == 0).then(|| reg(&mut g, false));
                    let fp = g.below(2) == 0;
                    Inst::load(reg(&mut g, fp), addr, mem)
                }
                1 => {
                    let mem = mems[g.below(mems.len() as u64) as usize];
                    let data = (g.below(2) == 0).then(|| reg(&mut g, false));
                    let addr = (g.below(2) == 0).then(|| reg(&mut g, false));
                    Inst::store(data, addr, mem)
                }
                2 => Inst::nop(),
                3 => {
                    let op = [OpClass::FpAdd, OpClass::FpMul, OpClass::FpDiv][g.below(3) as usize];
                    let s1 = (g.below(2) == 0).then(|| reg(&mut g, true));
                    Inst::alu(op, reg(&mut g, true), s1, None)
                }
                _ => {
                    let op =
                        [OpClass::IntAlu, OpClass::IntMul, OpClass::IntDiv][g.below(3) as usize];
                    let s1 = (g.below(2) == 0).then(|| reg(&mut g, false));
                    let s2 = (g.below(2) == 0).then(|| reg(&mut g, false));
                    Inst::alu(op, reg(&mut g, false), s1, s2)
                }
            };
            insts.push(inst);
        }
        let kind = if bi == nblocks - 1 {
            insts.push(Inst::ret());
            3
        } else if g.below(3) == 0 {
            let cond = (g.below(2) == 0).then(|| ArchReg::int(g.below(32) as u8));
            insts.push(Inst::branch(cond, brs[g.below(brs.len() as u64) as usize]));
            1
        } else if g.below(4) == 0 {
            insts.push(Inst::call());
            2
        } else {
            0
        };
        kinds.push(kind);
        ids.push(b.add_block(insts, None, None));
    }

    // Edges: every non-last block falls through to the next (keeping the
    // whole chain reachable); branch/call taken targets are arbitrary
    // block leaders. Plain blocks and the final `ret` carry no taken edge.
    for bi in 0..nblocks {
        let fall = (bi + 1 < nblocks).then(|| ids[bi + 1]);
        let taken = matches!(kinds[bi], 1 | 2).then(|| ids[g.below(nblocks as u64) as usize]);
        b.set_edges(ids[bi], taken, fall);
    }
    b.build().expect("generator produced an invalid program")
}

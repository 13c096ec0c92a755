//! The architectural stream walk ([`DynStream`]) follows each block's own
//! edges instead of locating every next PC in the program. This test pins
//! that the two are the same walk: a reference that re-locates the next
//! PC with [`Program::locate`] after every instruction must yield the
//! identical [`DynInst`] sequence, through the final `EXIT_PC`, over the
//! three `.gasm` kernels, the four profiles of the paper's sweep and
//! structured-random programs.

use gals_isa::{BlockId, DynInst, DynStream, OpClass, Program, EXIT_PC};
use gals_workload::{generate_workload, Benchmark, ProgramKernel, Workload};

#[path = "../../isa/tests/support/random_program.rs"]
mod random_program;

/// Longest walk compared; every kernel (about 90k–120k instructions) and
/// random program here exits well before it.
const MAX_INSTS: usize = 300_000;

/// Walk compared on a profile, whose synthetic program loops for ever.
const PROFILE_INSTS: usize = 100_000;

/// The stream walk as a PC-addressed interpreter: resolve the instruction,
/// compute the architectural next PC, locate it.
struct LocateWalk<'p> {
    program: &'p Program,
    pc: u64,
    exec_counts: Vec<u64>,
    call_stack: Vec<BlockId>,
    seq: u64,
}

impl<'p> LocateWalk<'p> {
    fn new(program: &'p Program) -> Self {
        LocateWalk {
            program,
            pc: program.block_start_pc(program.entry()),
            exec_counts: vec![0; program.static_inst_count() as usize],
            call_stack: Vec::new(),
            seq: 0,
        }
    }
}

impl Iterator for LocateWalk<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        let p = self.program;
        let (block, index, inst) = p.locate(self.pc)?;
        let flat = p.flat_index(block, index);
        let n = self.exec_counts[flat as usize];
        self.exec_counts[flat as usize] += 1;
        let taken_pc = || p.taken_target_pc(block).expect("validated taken edge");
        let (taken, next_pc) = match inst.op {
            OpClass::BranchCond => {
                let behavior = p.branch_behavior(inst.branch.expect("validated"));
                let taken = behavior.outcome(p.seed(), flat, n);
                let next = if taken {
                    taken_pc()
                } else {
                    p.fallthrough_pc(block)
                };
                (taken, next)
            }
            OpClass::Jump => (true, taken_pc()),
            OpClass::Call => {
                if let Some(ret_to) = p.block(block).fallthrough {
                    self.call_stack.push(ret_to);
                }
                (true, taken_pc())
            }
            OpClass::Ret => {
                let next = self
                    .call_stack
                    .pop()
                    .map_or(EXIT_PC, |b| p.block_start_pc(b));
                (true, next)
            }
            _ => (false, p.next_sequential_pc(block, index)),
        };
        let mem_addr = inst
            .mem
            .map(|m| p.mem_behavior(m).address(p.seed(), flat, n));
        let dyn_inst = DynInst {
            seq: self.seq,
            pc: self.pc,
            block,
            index,
            op: inst.op,
            taken,
            next_pc,
            mem_addr,
        };
        self.seq += 1;
        self.pc = next_pc;
        Some(dyn_inst)
    }
}

/// Compares the two walks instruction by instruction, for at most `limit`
/// instructions; returns the walk length (`limit` if it did not exit).
fn assert_same_walk(program: &Program, limit: usize, what: &str) -> usize {
    let mut reference = LocateWalk::new(program);
    let mut stream = DynStream::new(program);
    for i in 0..limit {
        let (want, got) = (reference.next(), stream.next());
        assert_eq!(got, want, "{what}: instruction {i}");
        if want.is_none() {
            return i;
        }
    }
    limit
}

#[test]
fn kernels_walk_like_the_locate_reference_through_exit() {
    for k in ProgramKernel::ALL {
        for seed in [0, 7] {
            let program = generate_workload(Workload::Kernel(k), seed);
            let n = assert_same_walk(&program, MAX_INSTS, k.name());
            assert!(n < MAX_INSTS, "{k}: the walk must reach EXIT_PC");
        }
    }
}

#[test]
fn paper_profiles_walk_like_the_locate_reference() {
    for b in [
        Benchmark::Gcc,
        Benchmark::Fpppp,
        Benchmark::Ijpeg,
        Benchmark::Compress,
    ] {
        let program = generate_workload(Workload::Profile(b), 0x5EC9_5202);
        assert_same_walk(&program, PROFILE_INSTS, b.name());
    }
}

#[test]
fn random_programs_walk_like_the_locate_reference() {
    let mut exited = 0;
    for seed in 1..=200u64 {
        let program = random_program::random_program(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let what = format!("random program {seed}");
        if assert_same_walk(&program, MAX_INSTS, &what) < MAX_INSTS {
            exited += 1;
        }
    }
    assert!(
        exited > 100,
        "only {exited} random programs reached EXIT_PC"
    );
}

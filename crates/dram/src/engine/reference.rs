//! The linear-scan reference engine — the correctness oracle.
//!
//! Every scheduling decision rescans the flat request buffer several
//! times (visibility filter, scheduler-class min, arbiter tie-break as
//! separate passes) and outstanding completions live in a plain binary
//! heap. Deliberately naive: this engine exists to be obviously faithful
//! to the controller semantics documented in `controller.rs`, so the
//! optimized engine can be tested bit-for-bit against it. Do not
//! optimize it.

use super::{EngineCtx, RawRun};
use crate::controller::{PagePolicy, RefreshPolicy, Scheduler, SchedulerBuffer};
use crate::power::OpCounts;
use crate::trace::MemoryRequest;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One buffered request. The SoA engine splits these fields across
/// parallel arrays.
#[derive(Debug, Clone)]
struct Pending {
    id: usize,
    row: u64,
    bank: usize,
    is_write: bool,
}

/// Per-bank timing state.
#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank accepts its next column command.
    ready_at: u64,
    activated_at: u64,
    /// When the last access's data (plus write recovery) finishes — the
    /// earliest a precharge may start.
    data_done: u64,
    hit_ewma: f64,
}

pub(super) fn run(ctx: &EngineCtx<'_>, trace: &[MemoryRequest]) -> RawRun {
    let t = ctx.timing;
    let cfg = ctx.config;
    let n = trace.len();

    let mut completion = vec![0u64; n];
    let mut banks: Vec<Bank> = (0..ctx.mapping.banks()).map(|_| Bank::default()).collect();
    let mut buffer: Vec<Pending> = Vec::with_capacity(cfg.request_buffer_size);
    // Completion times of issued requests, min-first so retirement pops
    // only what is due instead of scanning every outstanding request.
    let mut outstanding: BinaryHeap<Reverse<u64>> =
        BinaryHeap::with_capacity(cfg.max_active_transactions);
    // Scratch for the scheduler: indices into `buffer`, refilled in
    // place each decision so the loop allocates nothing per request.
    let mut sched: Vec<usize> = Vec::with_capacity(cfg.request_buffer_size);
    let mut next_admit = 0usize;
    let mut now = 0u64;
    let mut bus_free = 0u64;
    let mut counts = OpCounts::default();
    let mut row_hits = 0u64;
    let mut row_misses = 0u64;
    let mut row_conflicts = 0u64;
    let mut next_refi = t.t_refi;
    let mut refresh_debt: i64 = 0;
    let mut last_type_write = false;
    let mut rr_bank = 0usize;

    loop {
        // 1. Retire issued requests whose data has returned.
        while outstanding.peek().is_some_and(|&Reverse(c)| c <= now) {
            outstanding.pop();
        }

        // 2. Admit arrivals within buffer and transaction-window limits.
        while next_admit < n
            && trace[next_admit].arrival <= now
            && buffer.len() < cfg.request_buffer_size
            && buffer.len() + outstanding.len() < cfg.max_active_transactions
        {
            let req = trace[next_admit];
            let coords = ctx.mapping.decode(req.addr);
            buffer.push(Pending {
                id: next_admit,
                row: coords.row,
                bank: coords.bank,
                is_write: req.is_write,
            });
            next_admit += 1;
        }

        // 3. Refresh engine.
        if cfg.refresh_policy == RefreshPolicy::AllBank {
            while now >= next_refi {
                refresh_debt += 1;
                next_refi += t.t_refi;
            }
            let forced = refresh_debt > cfg.refresh_max_postponed as i64;
            let opportunistic = buffer.is_empty()
                && next_admit < n
                && refresh_debt > -(cfg.refresh_max_pulled_in as i64);
            if forced || (opportunistic && refresh_debt > 0) {
                let start = banks
                    .iter()
                    .map(|b| b.ready_at)
                    .max()
                    .unwrap_or(now)
                    .max(now);
                for b in &mut banks {
                    if b.open_row.take().is_some() {
                        counts.precharges += 1;
                    }
                    b.ready_at = start + t.t_rfc;
                }
                counts.refreshes += 1;
                refresh_debt -= 1;
                now = start + t.t_rfc;
                continue;
            }
        }

        // 4. Nothing schedulable: advance time to the next event.
        if buffer.is_empty() {
            if next_admit >= n {
                break; // every request issued; data returns on its own
            }
            let arrival_evt = trace[next_admit].arrival;
            // Admission may also be blocked by the transaction window.
            let window_full = outstanding.len() >= cfg.max_active_transactions;
            let evt = if window_full {
                outstanding.peek().map_or(arrival_evt, |&Reverse(c)| c)
            } else {
                arrival_evt
            };
            now = now.max(evt).max(now + 1);
            continue;
        }

        // 5. Scheduler visibility (into the reused scratch buffer).
        sched.clear();
        match cfg.scheduler_buffer {
            SchedulerBuffer::Shared => sched.extend(0..buffer.len()),
            SchedulerBuffer::ReadWrite => {
                sched.extend((0..buffer.len()).filter(|&i| !buffer[i].is_write));
                if sched.is_empty() {
                    sched.extend(0..buffer.len());
                }
            }
            SchedulerBuffer::Bankwise => {
                let nb = banks.len();
                let mut chosen = None;
                for off in 0..nb {
                    let bank = (rr_bank + off) % nb;
                    if buffer.iter().any(|p| p.bank == bank) {
                        chosen = Some(bank);
                        break;
                    }
                }
                let bank = chosen.expect("buffer non-empty");
                rr_bank = (bank + 1) % nb;
                sched.extend((0..buffer.len()).filter(|&i| buffer[i].bank == bank));
            }
        };

        // 6. Scheduler class: lower is more preferred.
        let class = |p: &Pending| -> u32 {
            let hit = banks[p.bank].open_row == Some(p.row);
            match cfg.scheduler {
                Scheduler::Fifo => 0,
                Scheduler::FrFcfs => u32::from(!hit),
                Scheduler::FrFcfsGrp => {
                    if hit {
                        0
                    } else if p.is_write == last_type_write {
                        1
                    } else {
                        2
                    }
                }
            }
        };
        let best_class = sched.iter().map(|&i| class(&buffer[i])).min().unwrap();
        sched.retain(|&i| class(&buffer[i]) == best_class);

        // 7. Arbiter tie-break.
        let estimate_start = |p: &Pending| -> u64 {
            let b = &banks[p.bank];
            let base = now.max(b.ready_at);
            let extra = match b.open_row {
                Some(r) if r == p.row => 0,
                Some(_) => t.t_rp + t.t_rcd,
                None => t.t_rcd,
            };
            base + extra
        };
        let chosen_pos = match cfg.arbiter {
            crate::controller::Arbiter::Simple => sched
                .iter()
                .copied()
                .min_by_key(|&i| (buffer[i].bank, buffer[i].id))
                .unwrap(),
            crate::controller::Arbiter::Fifo => {
                sched.iter().copied().min_by_key(|&i| buffer[i].id).unwrap()
            }
            crate::controller::Arbiter::Reorder => sched
                .iter()
                .copied()
                .min_by_key(|&i| (estimate_start(&buffer[i]), buffer[i].id))
                .unwrap(),
        };
        let p = buffer.swap_remove(chosen_pos);

        // 8. Bank timing engine.
        let bank = &mut banks[p.bank];
        let start = now.max(bank.ready_at);
        let was_hit = bank.open_row == Some(p.row);
        let col_ready = match bank.open_row {
            Some(r) if r == p.row => {
                row_hits += 1;
                start
            }
            Some(_) => {
                row_conflicts += 1;
                counts.precharges += 1;
                counts.activates += 1;
                let pre_start = start.max(bank.activated_at + t.t_ras).max(bank.data_done);
                bank.activated_at = pre_start + t.t_rp;
                pre_start + t.t_rp + t.t_rcd
            }
            None => {
                row_misses += 1;
                counts.activates += 1;
                bank.activated_at = start;
                start + t.t_rcd
            }
        };
        let cas = if p.is_write { t.t_cwl } else { t.t_cl };
        let data_start = (col_ready + cas).max(bus_free);
        let data_end = data_start + t.t_burst;
        bus_free = data_end;
        completion[p.id] = data_end;
        outstanding.push(Reverse(data_end));
        if p.is_write {
            counts.writes += 1;
        } else {
            counts.reads += 1;
        }
        last_type_write = p.is_write;

        // Column commands pipeline: the bank can accept its next CAS
        // one burst (≈tCCD) after this one issued; data return is
        // overlapped. Writes add recovery before the row can close.
        let cas_issue = data_start - cas;
        let next_cas = cas_issue + t.t_burst;
        let data_done = if p.is_write {
            data_end + t.t_wr
        } else {
            data_end
        };

        // 9. Page policy.
        bank.hit_ewma = 0.875 * bank.hit_ewma + 0.125 * f64::from(was_hit);
        let keep_open = match cfg.page_policy {
            PagePolicy::Open => true,
            PagePolicy::Closed => false,
            PagePolicy::OpenAdaptive => bank.hit_ewma > 0.25,
            PagePolicy::ClosedAdaptive => bank.hit_ewma > 0.75,
        };
        if keep_open {
            bank.open_row = Some(p.row);
            bank.ready_at = next_cas;
        } else {
            bank.open_row = None;
            counts.precharges += 1;
            bank.ready_at = data_done + t.t_rp;
        }
        bank.data_done = data_done;

        now = start + 1;
    }

    RawRun {
        completion,
        counts,
        row_hits,
        row_misses,
        row_conflicts,
    }
}

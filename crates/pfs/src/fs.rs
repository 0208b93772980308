//! The simulated parallel filesystem: ties together striping, servers,
//! the write-back cache, and per-client injection links, and prices
//! every operation in virtual time.
//!
//! Cost structure of a write (read is symmetric):
//!
//! 1. per-call client software overhead (`client_request_overhead`) —
//!    this is what caps 1 kB-chunk patterns on every system in Fig. 4;
//! 2. client injection link occupancy (`len / client_mbps`) — this is
//!    what makes b_eff_io scale with the number of SP nodes in Fig. 3;
//! 3. non-wellformed penalties: a write whose boundaries are not
//!    `disk_block`-aligned stages partial blocks (write amplification),
//!    and *rewriting* interior data unaligned additionally stalls on a
//!    synchronous block fetch (read-modify-write);
//! 4. the cache absorbs what fits (memory speed) and throttles the rest
//!    to the aggregate server drain bandwidth — this is what makes the
//!    T3E's I/O a "global resource" that 8 clients already saturate;
//! 5. without a cache, extents go to the striped servers directly, each
//!    paying `server_request_overhead` (seek) per extent.
//!
//! Consistency note: reads return bytes another client wrote only if
//! the read is ordered after the write by MPI synchronization (barrier,
//! sync, collective). That is exactly the MPI-IO consistency model, and
//! the b_eff_io access phases respect it.

use crate::cache::Cache;
use crate::config::PfsConfig;
use crate::file::FsFile;
use crate::server::Server;
use crate::stripe;
use beff_netsim::{Resource, Secs, MB};
use beff_sync::{Mutex, Rank};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Lock-hierarchy position of the filesystem name table (DESIGN.md §8).
static FILES_RANK: Rank = Rank::new(60, "pfs.files");

/// Payload of a write: real bytes (store-data mode) or just a length.
#[derive(Debug, Clone, Copy)]
pub enum DataRef<'a> {
    Bytes(&'a [u8]),
    Len(u64),
}

impl DataRef<'_> {
    #[inline]
    pub fn len(&self) -> u64 {
        match self {
            DataRef::Bytes(b) => b.len() as u64,
            DataRef::Len(n) => *n,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The filesystem.
pub struct Pfs {
    cfg: PfsConfig,
    servers: Vec<Server>,
    clients: Vec<Resource>,
    /// Shared I/O channel: aggregate ceiling for all client traffic.
    channel: Resource,
    channel_byte_time: Secs,
    cache: Cache,
    files: Mutex<BTreeMap<String, Arc<FsFile>>>,
    client_byte_time: Secs,
}

impl Pfs {
    pub fn new(cfg: PfsConfig) -> Self {
        assert!(cfg.servers > 0 && cfg.clients > 0);
        assert!(cfg.stripe_unit > 0 && cfg.disk_block > 0);
        let servers = (0..cfg.servers)
            .map(|_| Server::new(cfg.server_request_overhead, cfg.server_mbps))
            .collect();
        let clients = (0..cfg.clients).map(|_| Resource::new()).collect();
        let cache = Cache::new(&cfg);
        let client_byte_time = 1.0 / (cfg.client_mbps * MB as f64);
        let channel_byte_time = 1.0 / (cfg.aggregate_mbps * MB as f64);
        Self {
            cfg,
            servers,
            clients,
            channel: Resource::new(),
            channel_byte_time,
            cache,
            files: Mutex::ranked(&FILES_RANK, BTreeMap::new()),
            client_byte_time,
        }
    }

    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }

    /// Open (creating if needed); returns the file and the completion
    /// time of the open itself.
    pub fn open(&self, path: &str, t: Secs) -> (Arc<FsFile>, Secs) {
        let mut files = self.files.lock();
        let f = files
            .entry(path.to_string())
            .or_insert_with(|| Arc::new(FsFile::new(path.to_string())))
            .clone();
        (f, t + self.cfg.open_cost)
    }

    /// Close cost.
    pub fn close(&self, t: Secs) -> Secs {
        t + self.cfg.close_cost
    }

    /// Remove a file.
    pub fn unlink(&self, path: &str) {
        self.files.lock().remove(path);
    }

    /// Does the file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    /// Degrade server `i` (failure injection).
    pub fn set_server_speed_factor(&self, i: usize, f: f64) {
        self.servers[i].set_speed_factor(f);
    }

    /// Degrade *every* I/O server by `slowdown` (>= 1.0): the fault
    /// layer's `io_slowdown` maps here as speed factor `1 / slowdown`.
    /// The write-back cache drains through the same servers, so its
    /// drain bandwidth degrades by the same factor.
    pub fn degrade_servers(&self, slowdown: f64) {
        assert!(slowdown >= 1.0, "slowdown is a multiplier on service time");
        for s in &self.servers {
            s.set_speed_factor(1.0 / slowdown);
        }
        self.cache.set_drain_factor(1.0 / slowdown);
    }

    /// Enable the disk seek model on every server (0.0 disables; the
    /// calibrated machine defaults leave it off).
    pub fn set_seek_overhead(&self, seek: Secs) {
        for s in &self.servers {
            s.set_seek_overhead(seek);
        }
    }

    fn client_inject(&self, client: usize, t: Secs, len: u64) -> Secs {
        let t0 = t + self.cfg.client_request_overhead;
        let t1 = self.clients[client].reserve_finish(t0, len as f64 * self.client_byte_time);
        // all traffic shares the I/O channel
        self.channel.reserve_finish(t1 - len as f64 * self.client_byte_time,
            len as f64 * self.channel_byte_time).max(t1)
    }

    /// Extra bytes staged for unaligned boundaries (write amplification)
    /// and whether an interior rewrite forces a synchronous block fetch.
    fn boundary_penalties(&self, f: &FsFile, offset: u64, len: u64) -> (u64, u64) {
        let bs = self.cfg.disk_block;
        let size_before = f.size();
        let mut amplified = 0u64;
        let mut rmw_fetches = 0u64;
        for b in [offset, offset + len] {
            if b % bs != 0 {
                amplified += bs;
                if b < size_before {
                    rmw_fetches += 1;
                }
            }
        }
        (amplified, rmw_fetches)
    }

    fn server_of(&self, offset: u64) -> usize {
        ((offset / self.cfg.stripe_unit) % self.cfg.servers as u64) as usize
    }

    /// Write `data` at `offset`; returns the completion time.
    pub fn write(&self, client: usize, f: &FsFile, offset: u64, data: DataRef<'_>, t: Secs) -> Secs {
        let len = data.len();
        if len == 0 {
            return t;
        }
        let mut t1 = self.client_inject(client, t, len);

        let (amplified, rmw_fetches) = self.boundary_penalties(f, offset, len);
        if rmw_fetches > 0 {
            // synchronous partial-block fetch before the write can land
            let done = self.servers[self.server_of(offset)]
                .request(t1, rmw_fetches * self.cfg.disk_block);
            t1 = t1.max(done);
        }

        let done = if self.cache.enabled() {
            let d = self.cache.admit_write(t1, len + amplified);
            let stamp = self.cache.touch(len);
            f.mark_cached(offset, len, stamp);
            d
        } else {
            // One scatter-gather request per involved server: servers
            // coalesce the stripes of a single contiguous client call.
            let mut finish = t1;
            let mut starts = vec![u64::MAX; self.cfg.servers];
            let mut per_server = vec![0u64; self.cfg.servers];
            for e in stripe::split(offset, len + amplified, self.cfg.stripe_unit, self.cfg.servers) {
                per_server[e.server] += e.len;
                starts[e.server] = starts[e.server].min(e.file_offset);
            }
            for (s, &bytes) in per_server.iter().enumerate() {
                if bytes > 0 {
                    finish =
                        finish.max(self.servers[s].request_at(t1, bytes, Some(starts[s])));
                }
            }
            finish
        };

        if self.cfg.store_data {
            if let DataRef::Bytes(b) = data {
                f.store(offset, b);
            }
        }
        f.extend_to(offset + len);
        done
    }

    /// Read up to `len` bytes at `offset` (clamped at EOF) into `out`
    /// when present; returns `(bytes_read, completion_time)`.
    pub fn read(
        &self,
        client: usize,
        f: &FsFile,
        offset: u64,
        len: u64,
        out: Option<&mut [u8]>,
        t: Secs,
    ) -> (u64, Secs) {
        let avail = f.size().saturating_sub(offset);
        let len = len.min(avail);
        if len == 0 {
            return (0, t + self.cfg.client_request_overhead);
        }
        let t1 = self.client_inject(client, t, len);

        let (runs, hit_bytes) = if self.cache.enabled() {
            let runs = f.miss_runs(offset, len, |s| self.cache.resident(s));
            let miss: u64 = runs.iter().map(|r| r.1).sum();
            (runs, len - miss)
        } else {
            (vec![(offset, len)], 0)
        };

        let mut finish = t1 + self.cache.transfer_time(hit_bytes);
        let bs = self.cfg.disk_block;
        for (roff, rlen) in &runs {
            // read amplification at unaligned run boundaries
            let mut extra = 0u64;
            if roff % bs != 0 {
                extra += bs;
            }
            if (roff + rlen) % bs != 0 {
                extra += bs;
            }
            let mut starts = vec![u64::MAX; self.cfg.servers];
            let mut per_server = vec![0u64; self.cfg.servers];
            for e in stripe::split(*roff, rlen + extra, self.cfg.stripe_unit, self.cfg.servers) {
                per_server[e.server] += e.len;
                starts[e.server] = starts[e.server].min(e.file_offset);
            }
            for (s, &bytes) in per_server.iter().enumerate() {
                if bytes > 0 {
                    finish =
                        finish.max(self.servers[s].request_at(t1, bytes, Some(starts[s])));
                }
            }
        }

        if self.cache.enabled() {
            let miss: u64 = runs.iter().map(|r| r.1).sum();
            if miss > 0 {
                let stamp = self.cache.touch(miss);
                for (roff, rlen) in &runs {
                    f.mark_cached(*roff, *rlen, stamp);
                }
            }
        }

        if self.cfg.store_data {
            if let Some(buf) = out {
                let n = len as usize;
                assert!(buf.len() >= n, "read buffer too small");
                f.load(offset, &mut buf[..n]);
            }
        }
        (len, finish)
    }

    /// Flush all dirty cached data to disk (`MPI_File_sync` backend).
    pub fn sync(&self, t: Secs) -> Secs {
        self.cache.sync(t)
    }

    /// Direct cache access (diagnostics / tests).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfs(cfg: PfsConfig) -> Pfs {
        Pfs::new(cfg)
    }

    fn base_cfg() -> PfsConfig {
        PfsConfig {
            clients: 4,
            servers: 4,
            stripe_unit: 64 * 1024,
            disk_block: 16 * 1024,
            server_request_overhead: 1e-3,
            server_mbps: 25.0,
            client_request_overhead: 100e-6,
            client_mbps: 200.0,
            aggregate_mbps: 10_000.0,
            cache_bytes: 0,
            cache_mbps: 400.0,
            open_cost: 0.0,
            close_cost: 0.0,
            store_data: true,
        }
    }

    #[test]
    fn open_is_idempotent() {
        let p = pfs(base_cfg());
        let (a, _) = p.open("f", 0.0);
        let (b, _) = p.open("f", 0.0);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(p.exists("f"));
        p.unlink("f");
        assert!(!p.exists("f"));
    }

    #[test]
    fn write_then_read_roundtrips_data() {
        let p = pfs(base_cfg());
        let (f, t) = p.open("f", 0.0);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
        let t = p.write(0, &f, 0, DataRef::Bytes(&data), t);
        let mut out = vec![0u8; data.len()];
        let (n, _t2) = p.read(1, &f, 0, data.len() as u64, Some(&mut out), t);
        assert_eq!(n, data.len() as u64);
        assert_eq!(out, data);
    }

    #[test]
    fn read_clamps_at_eof() {
        let p = pfs(base_cfg());
        let (f, t) = p.open("f", 0.0);
        let t = p.write(0, &f, 0, DataRef::Len(1000), t);
        let (n, _) = p.read(0, &f, 500, 10_000, None, t);
        assert_eq!(n, 500);
        let (n, _) = p.read(0, &f, 5000, 10, None, t);
        assert_eq!(n, 0);
    }

    #[test]
    fn large_write_is_striped_across_servers() {
        // 4 servers at 25 MB/s: a 100 MB write should take ~1 s, not 4.
        let p = pfs(base_cfg());
        let (f, _) = p.open("f", 0.0);
        let done = p.write(0, &f, 0, DataRef::Len(100 * MB), 0.0);
        assert!(done > 0.8 && done < 1.6, "done={done}");
    }

    #[test]
    fn single_server_is_four_times_slower() {
        let cfg = PfsConfig { servers: 1, ..base_cfg() };
        let p = pfs(cfg);
        let (f, _) = p.open("f", 0.0);
        let done = p.write(0, &f, 0, DataRef::Len(100 * MB), 0.0);
        assert!(done > 3.5 && done < 5.0, "done={done}");
    }

    #[test]
    fn per_request_overhead_dominates_small_chunks() {
        // 1 kB chunks, 1 ms server overhead and 0.1 ms client overhead:
        // bandwidth must collapse vs 1 MB chunks.
        let p = pfs(base_cfg());
        let (f, _) = p.open("f", 0.0);
        let mut t = 0.0;
        let mut off = 0u64;
        for _ in 0..100 {
            t = p.write(0, &f, off, DataRef::Len(1024), t);
            off += 1024;
        }
        let small_bw = (100.0 * 1024.0) / t / MB as f64;

        let p2 = pfs(base_cfg());
        let (f2, _) = p2.open("f", 0.0);
        let mut t2 = 0.0;
        let mut off2 = 0u64;
        for _ in 0..100 {
            t2 = p2.write(0, &f2, off2, DataRef::Len(MB), t2);
            off2 += MB;
        }
        let big_bw = (100.0 * MB as f64) / t2 / MB as f64;
        assert!(big_bw > 20.0 * small_bw, "big={big_bw} small={small_bw}");
    }

    #[test]
    fn cache_makes_rewrite_and_read_fast_until_it_spills() {
        let cfg = PfsConfig { cache_bytes: 64 * MB, ..base_cfg() };
        let p = pfs(cfg);
        let (f, _) = p.open("f", 0.0);
        // 16 MB fits in cache: client link (0.08 s) + memory-speed
        // admit (0.04 s) — far below the ~0.64 s disk would take
        let done = p.write(0, &f, 0, DataRef::Len(16 * MB), 0.0);
        assert!(done < 0.2, "cached write done={done}");
        // read it back: cache hit, also fast
        let (_, rdone) = p.read(0, &f, 0, 16 * MB, None, done);
        assert!(rdone - done < 0.2, "cached read {}", rdone - done);
        // sync waits until all 16 MB are on disk; at 100 MB/s aggregate
        // drain the data cannot be durable before t = 0.16 s
        let sdone = p.sync(rdone);
        assert!(sdone >= rdone, "sync never completes early");
        assert!(sdone >= 16.0 / 100.0, "durable no earlier than drain allows: {sdone}");
        assert_eq!(p.cache().dirty_at(sdone), 0.0);
    }

    #[test]
    fn uncached_read_is_disk_speed() {
        let cfg = PfsConfig { cache_bytes: 8 * MB, ..base_cfg() };
        let p = pfs(cfg);
        let (f, _) = p.open("f", 0.0);
        // write 64 MB: far beyond cache, so most of it is not resident
        let t = p.write(0, &f, 0, DataRef::Len(64 * MB), 0.0);
        let t = p.sync(t);
        let (_, done) = p.read(0, &f, 0, 32 * MB, None, t);
        let bw = 32.0 / (done - t);
        assert!(bw < 150.0, "read must not exceed disk+overlap speeds: {bw} MB/s");
    }

    #[test]
    fn unaligned_interior_rewrite_pays_rmw() {
        let p = pfs(base_cfg());
        let (f, _) = p.open("f", 0.0);
        let t = p.write(0, &f, 0, DataRef::Len(MB), 0.0);
        // aligned rewrite of 32 kB
        let a0 = t;
        let a1 = p.write(0, &f, 0, DataRef::Len(32 * 1024), a0);
        // unaligned rewrite of the same size
        let b1 = p.write(0, &f, 8 + 64 * 1024, DataRef::Len(32 * 1024), a1);
        let aligned_cost = a1 - a0;
        let unaligned_cost = b1 - a1;
        assert!(
            unaligned_cost > 1.5 * aligned_cost,
            "aligned={aligned_cost} unaligned={unaligned_cost}"
        );
    }

    #[test]
    fn degraded_server_slows_striped_write() {
        let p = pfs(base_cfg());
        let (f, _) = p.open("f", 0.0);
        let healthy = p.write(0, &f, 0, DataRef::Len(64 * MB), 0.0);
        p.set_server_speed_factor(0, 0.1);
        let t1 = p.write(0, &f, 0, DataRef::Len(64 * MB), healthy) - healthy;
        assert!(t1 > 2.0 * healthy, "degraded write must straggle: {t1} vs {healthy}");
    }

    #[test]
    fn concurrent_clients_share_servers() {
        let p = Arc::new(pfs(base_cfg()));
        // Resources are booked single-writer (beff-sim `Resource`): in
        // a world the token scheduler orders the clients' bookings;
        // here a plain mutex stands in for the token.
        let token = Arc::new(Mutex::new(()));
        let mut finishes = Vec::new();
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|c| {
                    let (p, token) = (Arc::clone(&p), Arc::clone(&token));
                    s.spawn(move || {
                        let _turn = token.lock();
                        let (f, _) = p.open(&format!("f{c}"), 0.0);
                        p.write(c, &f, 0, DataRef::Len(25 * MB), 0.0)
                    })
                })
                .collect();
            for h in hs {
                finishes.push(h.join().unwrap());
            }
        });
        // 4 clients x 25 MB over 100 MB/s aggregate ≈ 1 s for the last
        let max = finishes.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 0.8, "servers must be shared: {finishes:?}");
    }

    #[test]
    fn zero_length_ops_are_cheap_and_safe() {
        let p = pfs(base_cfg());
        let (f, t) = p.open("f", 0.0);
        assert_eq!(p.write(0, &f, 0, DataRef::Len(0), t), t);
        let (n, _) = p.read(0, &f, 0, 0, None, t);
        assert_eq!(n, 0);
    }
}

// Package dist holds the distributed-execution building blocks, in two
// halves that deliberately coexist:
//
//   - The analytical model (analytic.go) reproduces §6.4 of the paper:
//     projected epoch time and speedup under bandwidth-bound gradient
//     allreduce, driven by measured single-node step times. It predicts
//     what distribution would buy; it moves no bytes.
//
//   - The transport primitives (pool.go, exchange.go) are the real
//     thing: a deadline-aware net/rpc client pool with connection
//     caching and invalidation-on-error, and an in-memory rendezvous
//     (Exchange) that lets asynchronous producers and consumers meet on
//     (request, stage) keys — the mechanism shard workers use to trade
//     halo rows in internal/distserve. A value published for n readers
//     is dropped by its n-th read and a request by its producer's Close
//     once nothing is owed; deadlines only sweep what a dead reader
//     never fetched.
//
// The split keeps the paper's projection model quotable and testable on
// its own while the serving stack builds actual multi-process inference
// on the same package's wire machinery.
package dist

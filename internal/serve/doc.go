// Package serve turns one loaded graph into a long-lived quasi-clique
// query service (cmd/qcserved is its daemon): an HTTP/JSON API over
// the session layer — one miner.Session, its machines in this process
// or in qcworker processes — with a priority+FIFO job queue,
// per-job wall-clock budgets, an admission quota, and an LRU result
// cache. The expensive state (the mmap'd graph, the joined worker
// processes, the warm remote-vertex cache) is paid once at startup;
// each query pays only for its own mining.
//
// # API
//
//	POST   /v1/jobs                submit a query (JSON body below)
//	GET    /v1/jobs                list the jobs the server remembers
//	GET    /v1/jobs/{id}           job status
//	GET    /v1/jobs/{id}/results   stream results (NDJSON)
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /metrics                service counters (Prometheus text, HELP and TYPE lines)
//	GET    /healthz                liveness
//
// The POST body carries the per-query parameters; only gamma and
// min_size are required:
//
//	{
//	  "gamma": 0.9,                 // degree ratio γ ∈ [0.5, 1]
//	  "min_size": 10,               // minimum quasi-clique size τsize
//	  "tau_split": 256,             // big-task threshold (optional)
//	  "tau_time_ms": 100,           // decomposition budget (optional)
//	  "time_budget_ms": 60000,      // wall-clock budget (optional)
//	  "priority": 5,                // queue priority, higher first (optional)
//	  "size_threshold_only": false, // decompose by tau_split alone (optional)
//	  "keep_non_maximal": false     // skip the maximality filter (optional)
//	}
//
// A body naming any other field is refused with 400 and the field's
// name, so a misspelled or retired option fails instead of being
// silently ignored.
//
// curl examples:
//
//	curl -d '{"gamma":0.9,"min_size":10}' localhost:7700/v1/jobs
//	curl localhost:7700/v1/jobs/j1
//	curl localhost:7700/v1/jobs/j1/results
//	curl -X DELETE localhost:7700/v1/jobs/j1
//
// # Job lifecycle
//
// A submission is answered 202 with {"id":"j1","state":"queued"} (or
// 200 with "cached":true — see below; or 400 for invalid parameters;
// 413 for a body over 64 KiB; or 429 when the quota of in-flight jobs
// is full). Jobs progress
// queued → running → one of three terminal states:
//
//   - done: results are ready. A job whose time_budget_ms expired is
//     also "done", flagged "partial":true — the budget bounds when the
//     job stops, and the results found inside it are valid.
//   - canceled: DELETE reached it. A queued job is dequeued without
//     ever touching the cluster; a running job has its context
//     aborted, terminates promptly, and frees the cluster for the
//     next job in queue. Either way its quota slot frees immediately.
//   - failed: the mining run itself errored.
//
// The cluster mines one job at a time (results must stay
// bit-identical to a serial mine, and the engine owns every core
// while mining); concurrency lives at admission. Queued jobs dispatch
// by priority, FIFO within a priority band.
//
// The server remembers every queued and running job and the most
// recent finished ones — as many as the result cache holds entries
// (128 by default). An older finished job is forgotten together with
// its result set; its id answers 404 from then on. Fetch results
// promptly, or resubmit: an identical query is usually a cache hit.
//
// GET /v1/jobs/{id}/results streams NDJSON — one JSON array of
// member vertex IDs per line, one line per quasi-clique, in canonical
// order — and answers 409 while the job is still queued or running.
//
// # Cache semantics
//
// Completed (non-partial, non-canceled) results enter an LRU cache
// keyed by the graph fingerprint plus the canonical encoding of the
// query — defaults applied, wall budget zeroed — so two submissions
// that mean the same query hit the same entry no matter how sparsely
// they were spelled, and a budget never changes what a COMPLETED
// query returns. A hit is answered synchronously (200, "cached":true)
// with a job id whose results are immediately fetchable; it consumes
// no quota and never touches the cluster.
package serve

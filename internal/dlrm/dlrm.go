// Package dlrm implements Meta's Deep Learning Recommendation Model
// (Naumov et al., arXiv:1906.00091) as the paper's Figure 1 describes it:
// a bottom MLP over dense features, embedding bags over sparse features,
// pairwise dot-product feature interaction, and a top MLP producing the
// CTR through a sigmoid. The embedding stage is pluggable — the CPU
// reference here, the DPU engine in internal/core, and the hybrid
// baselines all produce the same reduced embeddings, so outputs are
// comparable bit-for-bit (modulo float summation order).
package dlrm

import (
	"fmt"
	"sync/atomic"

	"updlrm/internal/emt"
	"updlrm/internal/mlp"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
	"updlrm/internal/workpool"
)

// Backing selects the embedding-table storage backend.
type Backing int

// Table backings.
const (
	// Procedural derives values from a hash — O(1) memory, paper-scale
	// tables on a laptop.
	Procedural Backing = iota
	// Dense stores real float32 rows.
	Dense
)

// Config describes a DLRM instance.
type Config struct {
	// DenseDim is the dense-feature width (bottom MLP input).
	DenseDim int
	// EmbDim is the embedding dimension (32 in the paper's evaluation).
	EmbDim int
	// RowsPerTable is the item count of each embedding table.
	RowsPerTable []int
	// BottomWidths are the bottom MLP layer widths; the final width must
	// equal EmbDim so dense features join the feature interaction.
	BottomWidths []int
	// TopWidths are the top MLP hidden widths; a final width-1 sigmoid
	// layer is appended automatically.
	TopWidths []int
	// TableBacking selects Dense or Procedural tables.
	TableBacking Backing
	// Seed drives all weight and table initialization.
	Seed uint64
}

// DefaultConfig returns the evaluation configuration of §4.1: embedding
// dimension 32, 8 tables, 13 dense features (the Criteo convention), and
// the reference DLRM MLP sizes scaled to inference.
func DefaultConfig(rowsPerTable []int) Config {
	return Config{
		DenseDim:     13,
		EmbDim:       32,
		RowsPerTable: rowsPerTable,
		BottomWidths: []int{128, 64, 32},
		TopWidths:    []int{256, 64},
		TableBacking: Procedural,
		Seed:         0xd12a,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.DenseDim <= 0:
		return fmt.Errorf("dlrm: DenseDim = %d", c.DenseDim)
	case c.EmbDim <= 0:
		return fmt.Errorf("dlrm: EmbDim = %d", c.EmbDim)
	case len(c.RowsPerTable) == 0:
		return fmt.Errorf("dlrm: no embedding tables")
	case len(c.BottomWidths) == 0:
		return fmt.Errorf("dlrm: empty bottom MLP")
	case c.BottomWidths[len(c.BottomWidths)-1] != c.EmbDim:
		return fmt.Errorf("dlrm: bottom MLP output %d != EmbDim %d",
			c.BottomWidths[len(c.BottomWidths)-1], c.EmbDim)
	}
	for t, rows := range c.RowsPerTable {
		if rows <= 0 {
			return fmt.Errorf("dlrm: table %d rows = %d", t, rows)
		}
	}
	return nil
}

// NumTables returns the embedding table count.
func (c Config) NumTables() int { return len(c.RowsPerTable) }

// InteractionDim returns the top MLP input width: the dense feature plus
// all pairwise dot products among the (tables + 1) feature vectors.
func (c Config) InteractionDim() int {
	n := c.NumTables() + 1
	return c.EmbDim + n*(n-1)/2
}

// Model is a materialized DLRM. It is not safe for concurrent use (the
// MLPs keep scratch buffers); use Clone for per-worker copies sharing no
// state.
type Model struct {
	Cfg    Config
	Bottom *mlp.MLP
	Top    *mlp.MLP
	Tables []emt.Table

	interBuf []float32 // top MLP input scratch
	denseBuf []float32 // bottom MLP output scratch
	ctrBuf   []float32
	// ws is the recycled batch-major workspace the serial batch entry
	// points use, allocated on first use (part of why Model is not safe
	// for concurrent use; HostPool brings per-worker workspaces).
	ws *BatchWorkspace
}

// New builds a model with deterministic weights and tables.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	bottomWidths := append([]int{cfg.DenseDim}, cfg.BottomWidths...)
	bottom, err := mlp.New(bottomWidths, mlp.ReLU, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("dlrm: bottom MLP: %w", err)
	}
	topWidths := append([]int{cfg.InteractionDim()}, cfg.TopWidths...)
	topWidths = append(topWidths, 1)
	top, err := mlp.New(topWidths, mlp.Sigmoid, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("dlrm: top MLP: %w", err)
	}
	m := &Model{
		Cfg:      cfg,
		Bottom:   bottom,
		Top:      top,
		interBuf: make([]float32, cfg.InteractionDim()),
		denseBuf: make([]float32, cfg.EmbDim),
		ctrBuf:   make([]float32, 1),
	}
	for t, rows := range cfg.RowsPerTable {
		seed := cfg.Seed ^ (uint64(t)+1)*0x9e3779b97f4a7c15
		switch cfg.TableBacking {
		case Procedural:
			m.Tables = append(m.Tables, emt.NewProcedural(rows, cfg.EmbDim, seed))
		case Dense:
			dt := emt.NewDense(rows, cfg.EmbDim)
			emt.FillRandom(dt, seed, 0.05)
			m.Tables = append(m.Tables, dt)
		default:
			return nil, fmt.Errorf("dlrm: unknown table backing %d", cfg.TableBacking)
		}
	}
	return m, nil
}

// Interact fills dst (len InteractionDim) with the feature-interaction
// output: the dense vector followed by all pairwise dots of
// [dense, emb_0, ..., emb_{T-1}].
func (m *Model) Interact(dense []float32, embs [][]float32, dst []float32) {
	d := m.Cfg.EmbDim
	if len(dense) != d {
		panic(fmt.Sprintf("dlrm: interact dense len %d != %d", len(dense), d))
	}
	if len(embs) != m.Cfg.NumTables() {
		panic(fmt.Sprintf("dlrm: interact %d embeddings, want %d", len(embs), m.Cfg.NumTables()))
	}
	if len(dst) != m.Cfg.InteractionDim() {
		panic(fmt.Sprintf("dlrm: interact dst len %d != %d", len(dst), m.Cfg.InteractionDim()))
	}
	copy(dst[:d], dense)
	// vectors = [dense, embs...]; emit dot(v_i, v_j) for i < j.
	vecAt := func(i int) []float32 {
		if i == 0 {
			return dense
		}
		return embs[i-1]
	}
	k := d
	n := m.Cfg.NumTables() + 1
	for i := 0; i < n; i++ {
		vi := vecAt(i)
		for j := i + 1; j < n; j++ {
			dst[k] = tensor.Dot(vi, vecAt(j))
			k++
		}
	}
}

// interactFlat is Interact over a flat tables*EmbDim embedding row (one
// EmbBuf sample). The arithmetic — and therefore the result, bit for
// bit — is identical to Interact over per-table slices.
func (m *Model) interactFlat(dense, embs, dst []float32) {
	d := m.Cfg.EmbDim
	if len(embs) != m.Cfg.NumTables()*d {
		panic(fmt.Sprintf("dlrm: interact flat embs len %d != %d", len(embs), m.Cfg.NumTables()*d))
	}
	copy(dst[:d], dense)
	vecAt := func(i int) []float32 {
		if i == 0 {
			return dense
		}
		return embs[(i-1)*d : i*d]
	}
	k := d
	n := m.Cfg.NumTables() + 1
	for i := 0; i < n; i++ {
		vi := vecAt(i)
		for j := i + 1; j < n; j++ {
			dst[k] = tensor.Dot(vi, vecAt(j))
			k++
		}
	}
}

// Forward computes one sample's CTR given its dense features and the
// per-table reduced embeddings.
func (m *Model) Forward(dense []float32, embs [][]float32) float32 {
	m.Bottom.Forward(dense, m.denseBuf)
	m.Interact(m.denseBuf, embs, m.interBuf)
	m.Top.Forward(m.interBuf, m.ctrBuf)
	return m.ctrBuf[0]
}

// FLOPsPerSample counts the dense compute per inference: both MLPs plus
// the interaction dots. The timing models charge MLP time with this.
func (m *Model) FLOPsPerSample() int64 {
	n := int64(m.Cfg.NumTables() + 1)
	interFlops := n * (n - 1) / 2 * int64(2*m.Cfg.EmbDim)
	return m.Bottom.FLOPs() + m.Top.FLOPs() + interFlops
}

// Clone returns an independent copy for concurrent workers.
func (m *Model) Clone() *Model {
	return &Model{
		Cfg:      m.Cfg,
		Bottom:   m.Bottom.Clone(),
		Top:      m.Top.Clone(),
		Tables:   m.Tables, // tables are read-only; sharing is safe
		interBuf: make([]float32, len(m.interBuf)),
		denseBuf: make([]float32, len(m.denseBuf)),
		ctrBuf:   make([]float32, 1),
	}
}

// EmbedCPU computes the reference reduced embeddings for a batch:
// out[s][t] is sample s's bag-sum over table t. It allocates the result;
// timing is the caller's concern.
func EmbedCPU(m *Model, b *trace.Batch) [][][]float32 {
	out := make([][][]float32, b.Size)
	scratch := make([]float32, m.Cfg.EmbDim)
	for s := 0; s < b.Size; s++ {
		out[s] = make([][]float32, m.Cfg.NumTables())
		for t := 0; t < m.Cfg.NumTables(); t++ {
			vec := make([]float32, m.Cfg.EmbDim)
			idx := b.SampleIndices(t, s)
			ints := make([]int, len(idx))
			for i, v := range idx {
				ints[i] = int(v)
			}
			emt.BagInto(m.Tables[t], ints, vec, scratch)
			out[s][t] = vec
		}
	}
	return out
}

// BatchWorkspace holds the activation matrices of the batch-major
// dense path: the assembled dense-input matrix, the bottom MLP output,
// the interaction matrix, the CTR column, and the MLP ping-pong
// scratch. Everything is recycled across batches (sized on first use,
// reshaped thereafter) and fully overwritten each run, so a workspace
// never bleeds one batch's activations into the next. The zero value
// is ready for use. Not safe for concurrent use — one per worker.
type BatchWorkspace struct {
	x0    tensor.Matrix // batch dense features (n x DenseDim)
	dense tensor.Matrix // bottom MLP output (n x EmbDim)
	inter tensor.Matrix // interaction output (n x InteractionDim)
	out   tensor.Matrix // top MLP output (n x 1)
	mw    mlp.Workspace
	// flat is scratch for flattening pyramid embeddings (ForwardBatch).
	flat tensor.EmbBuf
	// vecs is scratch for the interaction stage's row pointers
	// ([dense, emb_0, ..., emb_{T-1}] per sample).
	vecs [][]float32

	// Kernel selects the GEMM tier batches through this workspace run
	// on. The zero value is tensor.KernelExact — bit-identical to the
	// per-sample reference path; tensor.KernelFast trades bit identity
	// for the AVX2/FMA kernels. The tier rides the workspace, not the
	// model, so one shared read-only model can serve both.
	Kernel tensor.Kernel
}

// forwardGemm runs the batch-major dense path over samples [lo, hi) of
// the batch: assemble the dense rows, bottom MLP as one GEMM per
// layer, per-row feature interaction, top MLP as one GEMM per layer,
// CTRs into ctr[lo:hi]. Bit-identical to ForwardFlat per sample; it
// touches only ws (never the model's per-sample scratch), so
// concurrent workers on disjoint row ranges may share the model.
func (m *Model) forwardGemm(b *trace.Batch, embs *tensor.EmbBuf, ctr []float32, ws *BatchWorkspace, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	d := m.Cfg.EmbDim
	ws.x0.Reshape(n, m.Cfg.DenseDim)
	for r := 0; r < n; r++ {
		row := b.Dense[lo+r]
		if len(row) != m.Cfg.DenseDim {
			// A short row must fail loudly, as the per-sample MatVec
			// did — a truncating copy would leave stale workspace
			// values in the tail and yield silently wrong CTRs.
			panic(fmt.Sprintf("dlrm: sample %d dense len %d != %d", lo+r, len(row), m.Cfg.DenseDim))
		}
		copy(ws.x0.Row(r), row)
	}
	ws.dense.Reshape(n, d)
	ws.mw.Kernel = ws.Kernel
	m.Bottom.ForwardBatch(&ws.x0, &ws.dense, &ws.mw)
	ws.inter.Reshape(n, m.Cfg.InteractionDim())
	nv := m.Cfg.NumTables() + 1
	if cap(ws.vecs) < nv {
		ws.vecs = make([][]float32, nv)
	}
	vecs := ws.vecs[:nv]
	for r := 0; r < n; r++ {
		// The interaction stage through the Gram micro-kernels: copy the
		// dense vector, then every pairwise dot of [dense, embeddings]
		// as 2x2 register tiles. Exact tier is bit-identical to the old
		// interactFlat Dot loop (same pair order, same lane reduction).
		dense := ws.dense.Row(r)
		dst := ws.inter.Row(r)
		copy(dst[:d], dense)
		vecs[0] = dense
		sample := embs.Sample(lo + r)
		for t := 1; t < nv; t++ {
			vecs[t] = sample[(t-1)*d : t*d]
		}
		tensor.PairwiseDots(vecs, dst[d:], ws.Kernel)
	}
	ws.out.Reshape(n, 1)
	m.Top.ForwardBatch(&ws.inter, &ws.out, &ws.mw)
	copy(ctr[lo:hi], ws.out.Data)
}

// batchWS returns the model-owned workspace serial batch calls use,
// allocating it on first use.
func (m *Model) batchWS() *BatchWorkspace {
	if m.ws == nil {
		m.ws = &BatchWorkspace{}
	}
	return m.ws
}

// ForwardBatch runs the dense model over a batch given precomputed
// pyramid-layout embeddings, returning the CTRs. Since the batch-major
// rewrite it flattens the pyramid into the model workspace and runs
// the GEMM path — bit-identical to the old per-sample loop, which
// survives as Forward/ForwardFlat (the reference the equivalence tests
// compare against).
func (m *Model) ForwardBatch(b *trace.Batch, embs [][][]float32) []float32 {
	ws := m.batchWS()
	ws.flat.Reset(b.Size, m.Cfg.NumTables(), m.Cfg.EmbDim)
	for s := 0; s < b.Size; s++ {
		for t := 0; t < m.Cfg.NumTables(); t++ {
			if len(embs[s][t]) != m.Cfg.EmbDim {
				panic(fmt.Sprintf("dlrm: sample %d table %d embedding len %d != %d",
					s, t, len(embs[s][t]), m.Cfg.EmbDim))
			}
			copy(ws.flat.At(s, t), embs[s][t])
		}
	}
	ctr := make([]float32, b.Size)
	m.forwardGemm(b, &ws.flat, ctr, ws, 0, b.Size)
	return ctr
}

// ForwardFlat computes one sample's CTR from a flat tables*EmbDim
// embedding row (one tensor.EmbBuf sample). Bit-identical to Forward
// over the equivalent per-table slices.
func (m *Model) ForwardFlat(dense, embs []float32) float32 {
	m.Bottom.Forward(dense, m.denseBuf)
	m.interactFlat(m.denseBuf, embs, m.interBuf)
	m.Top.Forward(m.interBuf, m.ctrBuf)
	return m.ctrBuf[0]
}

// ForwardBatchFlat runs the batch-major GEMM dense path over a batch
// whose embeddings live in a flat EmbBuf, writing CTRs into ctr (len
// b.Size). Bit-identical to running ForwardFlat per sample (the
// per-sample reference path it replaced on the hot path). Activation
// matrices come from the model-owned recycled workspace, so the
// steady state allocates nothing.
func (m *Model) ForwardBatchFlat(b *trace.Batch, embs *tensor.EmbBuf, ctr []float32) {
	m.forwardGemm(b, embs, ctr, m.batchWS(), 0, b.Size)
}

// minRowsPerWorker is the smallest GEMM row-block worth a goroutine:
// below it, spawn overhead beats the parallel dense-compute win.
const minRowsPerWorker = 8

// HostPool is the dense-compute worker pool of the batch-major path:
// per-worker activation workspaces over one shared, read-only model.
// Forward shards the batch's GEMM row-blocks across the workers —
// each runs the whole layer pipeline on its block — which replaced
// the old pool of full model clones: weights (and their packed
// panels) are shared, only activations are per-worker. Samples are
// rows, rows are independent, so any split is bit-identical to the
// serial path.
//
// Workers are persistent goroutines (a workpool.Pool: started at
// construction, released when the pool becomes unreachable), so a
// steady-state Forward allocates nothing — row-block jobs travel by
// value over per-worker channels. A pool serves one Forward at a time;
// run one pool per engine.
type HostPool struct {
	model *Model
	ws    []*BatchWorkspace
	// pool runs blocks 1..n-1 on ws[1..n-1]; the caller's goroutine is
	// worker 0.
	pool *workpool.Pool[hostJob]
	// last is the worker count of the most recent Forward, stored
	// atomically so tests can assert the parallel path really fans out.
	last atomic.Int32
}

// hostJob is one row-block assignment, passed by value (no per-batch
// allocation).
type hostJob struct {
	b      *trace.Batch
	embs   *tensor.EmbBuf
	ctr    []float32
	lo, hi int
}

// NewHostPool builds a pool of the given width (minimum 1) around the
// model, running the given kernel tier. The model's weights must not
// be mutated while the pool is in use.
func NewHostPool(m *Model, workers int, k tensor.Kernel) *HostPool {
	if workers < 1 {
		workers = 1
	}
	ws := make([]*BatchWorkspace, workers)
	for i := range ws {
		ws[i] = &BatchWorkspace{Kernel: k}
	}
	// The workers capture the model and the workspaces, never the
	// HostPool itself, so it stays collectable and takes the goroutines
	// (and, through them, the model) with it.
	pool := workpool.New(workers, func(w int, j hostJob) {
		m.forwardGemm(j.b, j.embs, j.ctr, ws[w], j.lo, j.hi)
	})
	return &HostPool{model: m, ws: ws, pool: pool}
}

// Workers returns the pool width.
func (p *HostPool) Workers() int { return len(p.ws) }

// LastWorkers reports how many workers the most recent Forward fanned
// out over (1 = it ran serially).
func (p *HostPool) LastWorkers() int { return int(p.last.Load()) }

// Forward runs the dense model over the batch, sharding GEMM
// row-blocks across the pool. Row-block boundaries are aligned to the
// GEMM micro-tile so full tiles never straddle workers; the CTRs are
// bit-identical to the serial path no matter how the batch splits.
func (p *HostPool) Forward(b *trace.Batch, embs *tensor.EmbBuf, ctr []float32) {
	workers := len(p.ws)
	if max := (b.Size + minRowsPerWorker - 1) / minRowsPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 {
		p.last.Store(1)
		p.model.forwardGemm(b, embs, ctr, p.ws[0], 0, b.Size)
		return
	}
	// Even-sized blocks rounded up to tile alignment (gemm row pairs);
	// blocks 1..n-1 go to the persistent workers, block 0 runs on the
	// caller's goroutine.
	chunk := (b.Size + workers - 1) / workers
	chunk = (chunk + 1) &^ 1
	blocks := (b.Size + chunk - 1) / chunk
	p.last.Store(int32(blocks))
	for w := 1; w < blocks; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > b.Size {
			hi = b.Size
		}
		p.pool.Send(w, hostJob{b: b, embs: embs, ctr: ctr, lo: lo, hi: hi})
	}
	p.model.forwardGemm(b, embs, ctr, p.ws[0], 0, chunk)
	p.pool.Wait(blocks - 1)
}

// EmbedLookups returns the total lookups a batch performs across tables —
// the quantity the CPU gather model charges.
func EmbedLookups(b *trace.Batch) int64 {
	return int64(b.TotalLookups())
}

// RowBytes returns the bytes one embedding row occupies.
func (m *Model) RowBytes() int64 {
	return int64(m.Cfg.EmbDim) * emt.BytesPerElem
}

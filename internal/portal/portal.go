package portal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"lattice/internal/admit"
	"lattice/internal/dag"
	"lattice/internal/gsbl"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// Portal serves the science-portal HTTP interface over a gsbl.Service.
// All handlers serialize access to the (single-threaded) simulation
// through one mutex.
type Portal struct {
	mu      sync.Mutex
	eng     *sim.Engine
	svc     *gsbl.Service
	app     *gsbl.AppDescription
	users   map[string]string // token → email
	owners  map[string]string // batch ID → email (or guest email)
	nextTok int
	// statusFn, when set (see SetStatusSource), backs /grid/status.
	statusFn func() any
	// obsHub, when set (see SetObs), backs /metrics and /trace/.
	obsHub *obs.Obs
	// clientErrs counts response bodies that failed to write: the
	// client disconnected mid-response, which a handler cannot report
	// anywhere else.
	clientErrs int
	durable    Durability
	// artifactDir, when set, caches downloadable result archives on
	// disk (written atomically) so a crash mid-write can never leave a
	// truncated archive behind.
	artifactDir string
	// wfs, when set (see SetWorkflows), backs the workflow submission
	// and per-stage status endpoints.
	wfs *dag.Engine
}

// Durability is the write-ahead-log hook for portal account state.
// Called under the portal lock; implementations must not call back
// into the portal.
type Durability interface {
	User(at sim.Time, token, email string)
}

// SetDurable installs the durability hook (nil disables it).
func (p *Portal) SetDurable(d Durability) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.durable = d
}

// SetArtifactDir enables the on-disk result-archive cache under dir.
func (p *Portal) SetArtifactDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("portal: artifact dir: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.artifactDir = dir
	return nil
}

// RestoreUser re-creates a registered account from the durable log,
// keeping the token counter ahead of every restored token so new
// registrations never collide.
func (p *Portal) RestoreUser(token, email string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.users[token] = email
	var n int
	if _, err := fmt.Sscanf(token, "tok-%06d", &n); err == nil && n > p.nextTok {
		p.nextTok = n
	}
	if p.durable != nil {
		p.durable.User(p.eng.Now(), token, email)
	}
}

// WriteJSON serializes v to w with the portal's client-error
// accounting — exported for the cluster front router's merged
// endpoints.
func (p *Portal) WriteJSON(w http.ResponseWriter, v any) { p.writeJSON(w, v) }

// NoteClientErr records a failed response write on behalf of the
// cluster front router.
func (p *Portal) NoteClientErr() { p.noteClientErr() }

// LookupToken resolves a registered API token to its email. A cluster
// front router uses it to find the shard that issued a token.
func (p *Portal) LookupToken(token string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	email, ok := p.users[token]
	return email, ok
}

// Submit pushes a submission through the service's front door
// (gsbl.Service.EnqueueBatchOrigin) with portal ownership bookkeeping;
// POST /garli/create and WAL recovery both use it. The acceptance
// callback fires either synchronously (ingest model off, immediate
// quota refusal, or arriving-entry shed) or later at ingest drain
// time; drains run inside Pump, which holds the portal mutex, so the
// callback writes the ownership map directly instead of locking. The
// return value reflects what is known when the enqueue returns: the
// batch when acceptance was synchronous, the admission rejection when
// the submission was shed on arrival, or (nil, nil, nil) when it was
// queued behind the door.
func (p *Portal) Submit(sub workload.Submission) (*gsbl.Batch, *admit.Rejection, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var (
		batch *gsbl.Batch
		rej   *admit.Rejection
	)
	email := sub.UserEmail
	err := p.svc.EnqueueBatchOrigin(sub, "portal", func(b *gsbl.Batch, err error) {
		if b != nil {
			p.owners[b.ID] = email
			batch = b
			return
		}
		var r *admit.Rejection
		if errors.As(err, &r) {
			rej = r
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return batch, rej, nil
}

// ClientWriteErrors reports how many response writes failed because
// the client went away.
func (p *Portal) ClientWriteErrors() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clientErrs
}

func (p *Portal) noteClientErr() {
	p.mu.Lock()
	p.clientErrs++
	p.mu.Unlock()
}

// writeBody writes a response body, recording client disconnects.
func (p *Portal) writeBody(w io.Writer, data []byte) {
	if _, err := w.Write(data); err != nil {
		p.noteClientErr()
	}
}

// writeJSON sets the JSON content type and encodes v to w, recording
// failed writes.
func (p *Portal) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		p.noteClientErr()
	}
}

// SetWorkflows installs the workflow engine behind POST
// /workflow/create and GET /workflow/{id}. The engine runs on the
// simulation goroutine, so handlers access it under the portal mutex
// exactly as they do the service layer.
func (p *Portal) SetWorkflows(e *dag.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wfs = e
}

// SetStatusSource installs a provider for the /grid/status endpoint —
// typically the grid's MDS snapshot plus scheduler statistics.
func (p *Portal) SetStatusSource(fn func() any) { p.statusFn = fn }

// SetObs installs the observability hub behind GET /metrics (text
// exposition) and GET /trace/{batch} (span tree as JSON). The hub's
// registry and tracer have their own synchronization, so these
// handlers do not take the portal mutex and never block the Pump.
func (p *Portal) SetObs(o *obs.Obs) { p.obsHub = o }

// New builds a portal for the GARLI application.
func New(eng *sim.Engine, svc *gsbl.Service) *Portal {
	return &Portal{
		eng:    eng,
		svc:    svc,
		app:    gsbl.GarliApp(),
		users:  make(map[string]string),
		owners: make(map[string]string),
	}
}

// Handler returns the portal's HTTP mux.
func (p *Portal) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", p.handleIndex)
	mux.HandleFunc("/garli/create", p.handleCreate)
	mux.HandleFunc("/garli/app.xml", p.handleAppXML)
	mux.HandleFunc("/register", p.handleRegister)
	mux.HandleFunc("/myjobs", p.handleMyJobs)
	mux.HandleFunc("/batch/", p.handleBatch)
	mux.HandleFunc("/workflow/create", p.handleWorkflowCreate)
	mux.HandleFunc("/workflow/", p.handleWorkflowStatus)
	mux.HandleFunc("/grid/status", p.handleGridStatus)
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/trace/", p.handleTrace)
	return mux
}

// handleMetrics serves the metrics registry in text exposition format.
func (p *Portal) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if p.obsHub == nil {
		http.Error(w, "observability not configured", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.writeBody(w, []byte(p.obsHub.Exposition()))
}

// handleTrace serves /trace/{batch}: the batch's span tree as JSON.
func (p *Portal) handleTrace(w http.ResponseWriter, r *http.Request) {
	if p.obsHub == nil || p.obsHub.Tracer == nil {
		http.Error(w, "observability not configured", http.StatusNotFound)
		return
	}
	batch := strings.TrimPrefix(r.URL.Path, "/trace/")
	if batch == "" {
		http.Error(w, "batch ID required", http.StatusBadRequest)
		return
	}
	spans, ok := p.obsHub.Tracer.Batch(batch)
	if !ok {
		http.NotFound(w, r)
		return
	}
	p.writeJSON(w, map[string]any{"batch": batch, "spans": spans})
}

// Pump advances the simulated grid by d — the bridge between HTTP
// wall-clock and virtual time (cmd/lattice drives this from a ticker;
// tests call it directly).
func (p *Portal) Pump(d sim.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.eng.RunUntil(p.eng.Now().Add(d))
}

func (p *Portal) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	p.writeBody(w, []byte(fmt.Sprintf(`<html><body><h1>The Lattice Project</h1>
<p>Available grid services:</p>
<ul><li><a href="/garli/create">%s</a></li></ul>
</body></html>`, p.app.Title)))
}

func (p *Portal) handleAppXML(w http.ResponseWriter, r *http.Request) {
	data, err := p.app.XML()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	p.writeBody(w, data)
}

// handleRegister creates a registered user and returns an API token.
func (p *Portal) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	email := r.FormValue("email")
	if email == "" || !strings.Contains(email, "@") {
		http.Error(w, "valid email required", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	p.nextTok++
	token := fmt.Sprintf("tok-%06d", p.nextTok)
	p.users[token] = email
	if p.durable != nil {
		p.durable.User(p.eng.Now(), token, email)
	}
	p.mu.Unlock()
	p.writeJSON(w, map[string]string{"token": token, "email": email})
}

// identify resolves the requester's email: a registered token takes
// precedence; otherwise guest mode requires an email form value.
func (p *Portal) identify(r *http.Request) (string, bool) {
	if tok := r.Header.Get("X-Lattice-Token"); tok != "" {
		p.mu.Lock()
		email, ok := p.users[tok]
		p.mu.Unlock()
		return email, ok
	}
	email := r.FormValue("email")
	if strings.Contains(email, "@") {
		return email, true
	}
	return "", false
}

func (p *Portal) handleCreate(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		page, err := RenderForm(p.app)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		p.writeBody(w, []byte(page))
	case http.MethodPost:
		p.createJob(w, r)
	default:
		http.Error(w, "unsupported method", http.StatusMethodNotAllowed)
	}
}

// createJob parses the form, validates the upload and parameters, and
// submits the batch.
func (p *Portal) createJob(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseMultipartForm(32 << 20); err != nil {
		http.Error(w, "bad form: "+err.Error(), http.StatusBadRequest)
		return
	}
	email, ok := p.identify(r)
	if !ok {
		http.Error(w, "guest submissions require an email address", http.StatusBadRequest)
		return
	}
	spec, replicates, bootstrap, err := p.parseSpec(r)
	if err != nil {
		http.Error(w, "validation failed: "+err.Error(), http.StatusBadRequest)
		return
	}
	sub := workload.Submission{
		Spec:       *spec,
		Replicates: replicates,
		Bootstrap:  bootstrap,
		UserEmail:  email,
	}
	// An admission refusal becomes HTTP 429 with the controller's
	// deterministic Retry-After hint, and with the ingest model on an
	// accepted submission is queued (202) rather than expanded before
	// the response is written.
	batch, rej, err := p.Submit(sub)
	if err != nil {
		http.Error(w, "validation failed: "+err.Error(), http.StatusBadRequest)
		return
	}
	if rej != nil {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(rej.RetryAfter.Seconds()))))
		http.Error(w, rej.Error(), http.StatusTooManyRequests)
		return
	}
	if batch == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		if err := json.NewEncoder(w).Encode(map[string]any{
			"status":     "queued",
			"replicates": replicates,
		}); err != nil {
			p.noteClientErr()
		}
		return
	}
	p.writeJSON(w, map[string]any{
		"batch":      batch.ID,
		"jobs":       len(batch.Jobs),
		"replicates": replicates,
	})
}

// parseSpec converts form fields (and the uploaded data file) into a
// job specification, applying the GARLI validation mode before
// anything is scheduled.
func (p *Portal) parseSpec(r *http.Request) (*workload.JobSpec, int, bool, error) {
	spec := &workload.JobSpec{Seed: 1}
	dt, err := phylo.ParseDataType(formDefault(r, "datatype", "nucleotide"))
	if err != nil {
		return nil, 0, false, err
	}
	spec.DataType = dt
	spec.SubstModel = formDefault(r, "ratematrix", "GTR")
	het, err := phylo.ParseRateHetKind(formDefault(r, "ratehetmodel", "gamma"))
	if err != nil {
		return nil, 0, false, err
	}
	spec.RateHet = het
	if spec.RateHet != phylo.RateHomogeneous {
		spec.GammaShape = 0.5
		if spec.RateHet == phylo.RateGammaInv {
			spec.PropInvariant = 0.2
		}
	}
	intField := func(name string, def int) (int, error) {
		v := formDefault(r, name, strconv.Itoa(def))
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("parameter %s: %w", name, err)
		}
		return n, nil
	}
	if spec.NumRateCats, err = intField("numratecats", 4); err != nil {
		return nil, 0, false, err
	}
	if spec.SearchReps, err = intField("searchreps", 1); err != nil {
		return nil, 0, false, err
	}
	if spec.AttachmentsPerTaxon, err = intField("attachmentspertaxon", 25); err != nil {
		return nil, 0, false, err
	}
	st, err := phylo.ParseStartingTreeKind(formDefault(r, "streefname", "stepwise"))
	if err != nil {
		return nil, 0, false, err
	}
	spec.StartingTree = st
	replicates, err := intField("replicates", 1)
	if err != nil {
		return nil, 0, false, err
	}
	bootstrap := formDefault(r, "bootstrap", "no") == "yes"

	// The uploaded alignment defines the data dimensions; GARLI's
	// validation mode checks it before scheduling.
	file, _, err := r.FormFile("datafile")
	if err != nil {
		return nil, 0, false, fmt.Errorf("sequence data file required")
	}
	defer file.Close()
	al, err := parseUpload(file, spec.DataType)
	if err != nil {
		return nil, 0, false, err
	}
	if al.Type != spec.DataType {
		// A NEXUS FORMAT block overrides the form's datatype choice.
		spec.DataType = al.Type
	}
	if err := al.Validate(); err != nil {
		return nil, 0, false, err
	}
	spec.NumTaxa = al.NumTaxa()
	spec.SeqLength = al.Length()
	if err := spec.Validate(); err != nil {
		return nil, 0, false, err
	}
	return spec, replicates, bootstrap, nil
}

// parseUpload sniffs the uploaded alignment format: NEXUS documents
// declare themselves with #NEXUS, everything else is treated as FASTA.
func parseUpload(r io.Reader, dt phylo.DataType) (*phylo.Alignment, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(6)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if strings.EqualFold(string(head), "#NEXUS") {
		nf, err := phylo.ParseNEXUS(br)
		if err != nil {
			return nil, err
		}
		if nf.Alignment == nil {
			return nil, fmt.Errorf("NEXUS file has no data matrix")
		}
		return nf.Alignment, nil
	}
	return phylo.ParseFASTA(br, dt)
}

func formDefault(r *http.Request, name, def string) string {
	if v := r.FormValue(name); v != "" {
		return v
	}
	return def
}

// handleBatch serves /batch/{id}[/download] with per-user access
// control for registered users.
func (p *Portal) handleBatch(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/batch/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	p.mu.Lock()
	owner, known := p.owners[id]
	p.mu.Unlock()
	if !known {
		http.NotFound(w, r)
		return
	}
	// Registered users may only see their own batches; guests may
	// query any batch ID they hold (capability-style).
	if tok := r.Header.Get("X-Lattice-Token"); tok != "" {
		p.mu.Lock()
		email, ok := p.users[tok]
		p.mu.Unlock()
		if !ok || email != owner {
			http.Error(w, "forbidden", http.StatusForbidden)
			return
		}
	}
	if len(parts) == 2 && parts[1] == "download" {
		p.mu.Lock()
		data, err := p.svc.ResultsZip(id)
		dir := p.artifactDir
		p.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if dir != "" {
			// Publish the archive atomically: readers (and recovery)
			// only ever see a complete zip at this path.
			if err := wal.WriteFileAtomic(filepath.Join(dir, id+".zip"), data); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "application/zip")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.zip", id))
		p.writeBody(w, data)
		return
	}
	p.mu.Lock()
	st, err := p.svc.Status(id)
	p.mu.Unlock()
	if err != nil {
		http.NotFound(w, r)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		p.writeJSON(w, st)
		return
	}
	page, err := renderStatus(st)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html")
	p.writeBody(w, []byte(page))
}

// handleWorkflowCreate accepts a JSON workload.Workflow and submits
// it to the workflow engine. A registered token's email overrides the
// body's userEmail; guests must supply one in the body.
func (p *Portal) handleWorkflowCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var wf workload.Workflow
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&wf); err != nil {
		http.Error(w, "bad workflow JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if tok := r.Header.Get("X-Lattice-Token"); tok != "" {
		p.mu.Lock()
		email, ok := p.users[tok]
		p.mu.Unlock()
		if !ok {
			http.Error(w, "unknown token", http.StatusUnauthorized)
			return
		}
		wf.UserEmail = email
	} else if !strings.Contains(wf.UserEmail, "@") {
		http.Error(w, "guest workflows require a userEmail", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	if p.wfs == nil {
		p.mu.Unlock()
		http.Error(w, "workflow engine not configured", http.StatusNotFound)
		return
	}
	run, err := p.wfs.Submit(wf)
	if err != nil {
		p.mu.Unlock()
		http.Error(w, "validation failed: "+err.Error(), http.StatusBadRequest)
		return
	}
	p.owners[run.ID] = wf.UserEmail
	p.mu.Unlock()
	p.writeJSON(w, map[string]any{
		"workflow": run.ID,
		"stages":   len(run.Order),
	})
}

// handleWorkflowStatus serves /workflow/{id}: per-stage state in
// topological order, with the same per-user access control as
// batches.
func (p *Portal) handleWorkflowStatus(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/workflow/")
	if id == "" || id == "create" {
		http.Error(w, "workflow run ID required", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	owner, known := p.owners[id]
	p.mu.Unlock()
	if !known {
		http.NotFound(w, r)
		return
	}
	if tok := r.Header.Get("X-Lattice-Token"); tok != "" {
		p.mu.Lock()
		email, ok := p.users[tok]
		p.mu.Unlock()
		if !ok || email != owner {
			http.Error(w, "forbidden", http.StatusForbidden)
			return
		}
	}
	p.mu.Lock()
	if p.wfs == nil {
		p.mu.Unlock()
		http.NotFound(w, r)
		return
	}
	st, err := p.wfs.Status(id)
	p.mu.Unlock()
	if err != nil {
		http.NotFound(w, r)
		return
	}
	p.writeJSON(w, st)
}

// handleGridStatus reports the federation's current state. The
// status callback reaches into core and is invoked outside p.mu: a
// callback that re-entered the portal would otherwise deadlock.
func (p *Portal) handleGridStatus(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	fn := p.statusFn
	p.mu.Unlock()
	if fn == nil {
		http.Error(w, "status source not configured", http.StatusNotFound)
		return
	}
	st := fn()
	p.writeJSON(w, st)
}

// handleMyJobs lists a registered user's batches.
func (p *Portal) handleMyJobs(w http.ResponseWriter, r *http.Request) {
	tok := r.Header.Get("X-Lattice-Token")
	p.mu.Lock()
	email, ok := p.users[tok]
	p.mu.Unlock()
	if !ok {
		http.Error(w, "registration token required", http.StatusUnauthorized)
		return
	}
	type row struct {
		Batch  string `json:"batch"`
		Status gsbl.BatchStatus
	}
	var rows []row
	p.mu.Lock()
	for id, owner := range p.owners {
		if owner != email {
			continue
		}
		st, err := p.svc.Status(id)
		if err == nil {
			rows = append(rows, row{Batch: id, Status: st})
		}
	}
	p.mu.Unlock()
	p.writeJSON(w, rows)
}

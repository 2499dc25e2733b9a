package hazy

import (
	"fmt"
	"strings"
	"sync"

	"hazy/internal/core"
	"hazy/internal/engine"
	"hazy/internal/exec"
	"hazy/internal/sqlmini"
)

// Result is a statement's output: column names plus stringified rows
// (ints render without decimals). It serializes to JSON for the
// server's SQL wire command.
type Result struct {
	Cols []string   `json:"cols,omitempty"`
	Rows [][]string `json:"rows,omitempty"`
	// Msg is set for DDL/DML statements with no result set.
	Msg string `json:"msg,omitempty"`
}

// Session is the database's front door: it executes SQL statements
// (the paper's §2.1 dialect) against the whole catalog and carries
// the per-session state the statement surface needs — the default
// view for unqualified commands and the engine tokens that keep one
// session's asynchronous write failures from surfacing in another
// session's FLUSH.
//
// Every consumer goes through a Session: embedded Go callers, each
// hazyql REPL, and every TCP connection served by hazyd. Sessions are
// cheap; create one per actor. Reads through a snapshot binding
// (BoundView.Live false) and writes on engined views are safe for
// concurrent use; catalog DDL, writes on unmanaged views and reads
// through a live binding need external serialization, exactly like
// the underlying DB.
type Session struct {
	db *DB

	mu      sync.RWMutex
	defView string
	toks    map[*engine.Engine]engine.Token
}

// NewSession opens a session over the database.
func (db *DB) NewSession() *Session {
	return &Session{db: db, toks: map[*engine.Engine]engine.Token{}}
}

// DB returns the session's database.
func (s *Session) DB() *DB { return s.db }

// Use sets the session's default view — the target of unqualified
// wire verbs (LABEL <id> and friends). The view must exist.
func (s *Session) Use(view string) error {
	if _, err := s.db.View(view); err != nil {
		return err
	}
	s.SetDefaultView(view)
	return nil
}

// SetDefaultView sets the default view without checking that it
// exists yet (servers configure a default before clients declare it).
func (s *Session) SetDefaultView(view string) {
	s.mu.Lock()
	s.defView = view
	s.mu.Unlock()
}

// DefaultView returns the session's default view name ("" if unset).
func (s *Session) DefaultView() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.defView
}

// token returns this session's error-attribution token for eng,
// allocating it on first use. Entries for engines that have since
// been closed (detach/re-attach cycles) are pruned so a long-lived
// session does not pin dead engines and their final snapshots.
func (s *Session) token(eng *engine.Engine) engine.Token {
	s.mu.Lock()
	defer s.mu.Unlock()
	for old := range s.toks {
		if old != eng && old.Closed() {
			delete(s.toks, old)
		}
	}
	tok, ok := s.toks[eng]
	if !ok {
		tok = eng.NewToken()
		s.toks[eng] = tok
	}
	return tok
}

// BoundView is a view handle resolved once, and the one place that
// decides which state answers the view's reads: the engine's
// published snapshot when an engine is attached, a replica's
// republished snapshot while a shipped stream is applied, and the
// live structure otherwise. The SQL catalog, every wire verb and Go
// callers read through the same binding, so they cannot disagree
// about it, and a concurrent attach or detach cannot split a caller's
// decision from its operations. If the bound engine has since been
// detached, its writes fail with an explicit engine-closed error
// (never a silent fallback to the unsynchronized live view). A
// binding is per statement: reads answer from the state loaded at
// Bind, so re-bind to observe later writes.
type BoundView struct {
	s    *Session
	cv   *ClassView
	eng  *engine.Engine // nil when unmanaged at bind time
	snap *core.Snapshot // nil when the binding reads live state
	src  exec.ViewSource
	// The sources live inside the binding, so a bind is one
	// allocation; src points at whichever of them serves.
	ss snapshotSource
	ls liveSource
}

// Bind resolves a view name ("" = the session default) once and
// loads the state its reads are served from.
func (s *Session) Bind(view string) (*BoundView, error) {
	name := view
	if name == "" {
		name = s.DefaultView()
	}
	if name == "" {
		return nil, fmt.Errorf("hazy: no view named and no default view set (USE <view>)")
	}
	cv, eng, err := s.db.viewAndEngine(name)
	if err != nil {
		return nil, err
	}
	bv := &BoundView{s: s, cv: cv, eng: eng}
	if eng != nil {
		bv.snap = eng.Snapshot()
	} else {
		// On a replica the applier owns the live structure; reads
		// come from the snapshot it republishes after every batch
		// (nil on a primary).
		bv.snap = cv.pub.Load()
	}
	if bv.snap != nil {
		bv.ss = snapshotSource{name: name, snap: bv.snap}
		bv.src = &bv.ss
	} else {
		bv.ls = liveSource{cv: cv}
		bv.src = &bv.ls
	}
	return bv, nil
}

// Live reports whether the binding reads the live structure, which
// needs the caller's serialization (the server's statement mutex, or
// single-threaded embedded use). Snapshot bindings are lock-free.
func (bv *BoundView) Live() bool { return bv.snap == nil }

// Name returns the bound view's name.
func (bv *BoundView) Name() string { return bv.cv.Name() }

// Label answers a Single Entity read.
func (bv *BoundView) Label(id int64) (int, error) { return bv.src.Label(id) }

// Members answers an All Members read.
func (bv *BoundView) Members() ([]int64, error) { return bv.src.Members() }

// CountMembers counts the +1-labeled entities.
func (bv *BoundView) CountMembers() (int, error) { return bv.src.CountMembers() }

// MostUncertain returns up to k ids nearest the decision boundary
// (active-learning picks).
func (bv *BoundView) MostUncertain(k int) ([]int64, error) { return bv.src.MostUncertain(k) }

// Classify scores free text against the bound model without storing
// anything. A never-trained view returns an "untrained" error instead
// of a meaningless zero-model prediction.
func (bv *BoundView) Classify(text string) (int, error) {
	m := bv.cv.view.Model()
	if bv.snap != nil {
		m = bv.snap.Model()
	}
	if m == nil || !m.Trained() {
		return 0, fmt.Errorf("hazy: view %q is untrained (no training examples yet)", bv.cv.Name())
	}
	return m.Predict(bv.cv.ff.ComputeFeature(text)), nil
}

// Train inserts a training example into the view's examples table
// (synchronous: it returns once the write is applied and visible,
// whichever path — trigger or engine — maintains the view).
func (bv *BoundView) Train(id int64, label int) error {
	switch {
	case bv.eng != nil:
		if label != 1 && label != -1 {
			return fmt.Errorf("hazy: label must be ±1, got %d", label)
		}
		return bv.eng.Train(id, label)
	case bv.snap != nil:
		// A replica binding stays read-only even if PROMOTE lands
		// after Bind: it was not taken under any write serialization.
		return errReadOnly
	}
	return bv.cv.exs.InsertExample(id, label)
}

// Add inserts an entity into the view's entity table (synchronous).
func (bv *BoundView) Add(id int64, text string) error {
	switch {
	case bv.eng != nil:
		return bv.eng.Add(id, text)
	case bv.snap != nil:
		return errReadOnly // a replica binding, as in Train
	}
	return bv.cv.ents.InsertText(id, text)
}

// TrainAsync enqueues a training example on the view's engine and
// returns as soon as it is queued. The op is tagged with the owning
// session's token: a failure surfaces only in that session's Flush.
// Requires an engine attached at bind time.
func (bv *BoundView) TrainAsync(id int64, label int) error {
	if bv.eng == nil {
		return fmt.Errorf("hazy: view %q has no engine attached (async writes need one)", bv.cv.Name())
	}
	return bv.eng.TrainAsyncTok(bv.s.token(bv.eng), id, label)
}

// AddAsync enqueues an entity insert, tagged with the owning
// session's token.
func (bv *BoundView) AddAsync(id int64, text string) error {
	if bv.eng == nil {
		return fmt.Errorf("hazy: view %q has no engine attached (async writes need one)", bv.cv.Name())
	}
	return bv.eng.AddAsyncTok(bv.s.token(bv.eng), id, text)
}

// Flush is the owning session's barrier on the view's engine: every
// previously enqueued write (any session's) is applied and visible
// when it returns, and the first failure among THIS session's async
// ops — and only this session's — is reported and cleared.
func (bv *BoundView) Flush() error {
	if bv.eng == nil {
		return fmt.Errorf("hazy: view %q has no engine attached (nothing to flush)", bv.cv.Name())
	}
	return bv.eng.FlushTok(bv.s.token(bv.eng))
}

// ViewStats returns the view's maintenance counters (as captured in
// the bound snapshot, if any) plus the engine's serving counters
// rendered as a string ("" when unmanaged).
func (bv *BoundView) ViewStats() (Stats, string) {
	if bv.eng != nil {
		return bv.snap.Stats(), bv.eng.Stats().String()
	}
	if bv.snap != nil {
		return bv.snap.Stats(), ""
	}
	return bv.cv.Stats(), ""
}

// Exec parses and executes one SQL statement against the catalog,
// materializing the result. It is Query plus a drain — callers that
// want to stream a large SELECT row at a time (the server's SQL wire
// command does) use Query directly.
func (s *Session) Exec(src string) (*Result, error) {
	rows, err := s.Query(src)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	if rows.Msg() != "" {
		return &Result{Msg: rows.Msg()}, nil
	}
	res := &Result{Cols: rows.Cols()}
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		res.Rows = append(res.Rows, row)
	}
}

// execStmt executes one non-SELECT statement (Query handles SELECT
// and EXPLAIN through the planner).
func (s *Session) execStmt(st sqlmini.Stmt) (*Result, error) {
	switch st := st.(type) {
	case sqlmini.CreateTable:
		return s.createTable(st)
	case sqlmini.CreateView:
		return s.createView(st)
	case sqlmini.Insert:
		return s.insert(st)
	case sqlmini.AttachEngine:
		return s.attachEngine(st)
	case sqlmini.DetachEngine:
		return s.detachEngine(st)
	case sqlmini.Checkpoint:
		if err := s.db.Checkpoint(); err != nil {
			return nil, err
		}
		return &Result{Msg: "CHECKPOINT"}, nil
	case sqlmini.Promote:
		if err := s.db.Promote(); err != nil {
			return nil, err
		}
		return &Result{Msg: "PROMOTE"}, nil
	default:
		return nil, fmt.Errorf("sql: unhandled statement %T", st)
	}
}

func (s *Session) createTable(st sqlmini.CreateTable) (*Result, error) {
	if len(st.Cols) != 2 || !strings.EqualFold(st.Cols[0].Name, "id") ||
		st.Cols[0].Type != "BIGINT" || !strings.EqualFold(st.Key, "id") {
		return nil, fmt.Errorf("sql: the mini dialect supports tables (id BIGINT, col TEXT|BIGINT) KEY id")
	}
	switch st.Cols[1].Type {
	case "TEXT":
		if _, err := s.db.CreateEntityTable(st.Name, st.Cols[1].Name); err != nil {
			return nil, err
		}
	case "BIGINT":
		if _, err := s.db.CreateExampleTable(st.Name); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sql: second column must be TEXT (entities) or BIGINT (examples)")
	}
	return &Result{Msg: "CREATE TABLE"}, nil
}

func (s *Session) createView(st sqlmini.CreateView) (*Result, error) {
	spec := ViewSpec{
		Name:            st.Name,
		Entities:        st.Entities,
		Examples:        st.Examples,
		FeatureFunction: st.Feature,
		Method:          strings.ToLower(st.Using),
		Partitions:      st.Partitions,
	}
	var err error
	if spec.Arch, err = core.ParseArch(st.Arch); err != nil {
		return nil, fmt.Errorf("sql: unknown ARCHITECTURE %q", st.Arch)
	}
	if spec.Strategy, err = core.ParseStrategy(st.Strategy); err != nil {
		return nil, fmt.Errorf("sql: unknown STRATEGY %q", st.Strategy)
	}
	if spec.Mode, err = core.ParseMode(st.Mode); err != nil {
		return nil, fmt.Errorf("sql: unknown MODE %q", st.Mode)
	}
	if spec.Arch == core.HybridArch && spec.Strategy == core.Naive {
		return nil, fmt.Errorf("sql: HYBRID requires STRATEGY HAZY")
	}
	if _, err := s.db.CreateClassificationView(spec); err != nil {
		return nil, err
	}
	return &Result{Msg: "CREATE CLASSIFICATION VIEW"}, nil
}

func (s *Session) attachEngine(st sqlmini.AttachEngine) (*Result, error) {
	if _, err := s.db.AttachEngine(st.View, EngineOptions{
		QueueSize: st.Queue, MaxBatch: st.Batch,
	}); err != nil {
		return nil, err
	}
	return &Result{Msg: "ATTACH ENGINE"}, nil
}

func (s *Session) detachEngine(st sqlmini.DetachEngine) (*Result, error) {
	if err := s.db.DetachEngine(st.View); err != nil {
		return nil, err
	}
	return &Result{Msg: "DETACH ENGINE"}, nil
}

func (s *Session) insert(st sqlmini.Insert) (*Result, error) {
	// One catalog lookup per statement, not per row.
	s.db.mu.RLock()
	entity, entityOK := s.db.tables[st.Table]
	example, exampleOK := s.db.examples[st.Table]
	s.db.mu.RUnlock()
	if !entityOK && !exampleOK {
		return nil, fmt.Errorf("sql: no table %q", st.Table)
	}
	for _, row := range st.Rows {
		if len(row) != 2 {
			return nil, fmt.Errorf("sql: %s rows take 2 values, got %d", st.Table, len(row))
		}
		if row[0].IsString {
			return nil, fmt.Errorf("sql: id must be an integer")
		}
		id := int64(row[0].Num)
		if entityOK {
			if !row[1].IsString {
				return nil, fmt.Errorf("sql: entity text must be a string")
			}
			if err := entity.InsertText(id, row[1].Str); err != nil {
				return nil, err
			}
		} else {
			if row[1].IsString {
				return nil, fmt.Errorf("sql: label must be ±1")
			}
			if err := example.InsertExample(id, int(row[1].Num)); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Msg: fmt.Sprintf("INSERT %d", len(st.Rows))}, nil
}

// SELECT evaluation lives in internal/exec (the streaming planner and
// operator pipeline) behind Session.Query in query.go; the per-kind
// scan-and-filter loops that used to sit here — including their
// rows[:0] in-place filtering over a slice still being read — are
// gone with it.

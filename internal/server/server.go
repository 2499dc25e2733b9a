// Package server exposes a whole Hazy catalog over a TCP socket with
// a newline-delimited text protocol — the deployment shape of the
// paper's prototype (App. B.1: "Hazy runs in a separate process and
// IPC is handled using sockets").
//
// Every connection is one hazy.Session: SQL statements execute
// against the shared catalog through the SQL command, and the legacy
// verbs address any classification view by name, defaulting to the
// session's current view (USE, or the server's configured default) so
// pre-catalog clients keep working unchanged.
//
// Protocol (one request per line, one response line each):
//
//	SQL <stmt>                 → JSON {"cols":…,"rows":…,"msg":…}
//	                             (SELECT rows are written into the
//	                             response line as the plan streams
//	                             them — the result is never
//	                             materialized server-side)
//	USE <view>                 → "OK"        (set session default view)
//	LABEL [view] <id>          → "+1" | "-1"
//	COUNT [view]               → "<n>"       (All Members count)
//	MEMBERS [view]             → "<id> ..."  (ids labeled +1)
//	TRAIN [view] <id> <±1>     → "OK"        (insert training example)
//	ADD [view] <id> <text...>  → "OK"        (insert entity)
//	TRAINA [view] <id> <±1>    → "QUEUED"    (async; engined views only)
//	ADDA [view] <id> <text...> → "QUEUED"    (async; engined views only)
//	FLUSH [view]               → "OK"        (per-session barrier)
//	CLASSIFY <text...>         → "+1" | "-1" (ad-hoc, not stored; default view — USE to retarget)
//	UNCERTAIN [view] <k>       → "<id> ..."  (active-learning picks)
//	STATS [view]               → "updates=<n> reorgs=<n> band=<n> [engine counters]"
//	QUIT                       → "BYE" and the connection closes
//
// Errors come back as "ERR <message>". A line longer than 1 MiB is
// answered "ERR statement longer than 1 MiB" and the connection closes.
//
// Which state serves a view is decided per statement by
// hazy.Session.Bind, not by the server: a view with a maintenance
// engine attached (hazy.DB.AttachEngine, or the SQL statement ATTACH
// ENGINE TO <view>) binds the engine's published snapshot, and a
// replica's main-memory view binds the snapshot its applier
// republishes. Verbs on such a binding run lock-free — reads from the
// snapshot, engine writes through the batched queue — while verbs on
// live views and SQL planning serialize behind the server's statement
// mutex, one at a time, like the seed's single-session server. TRAIN
// and ADD stay synchronous everywhere
// (the response is sent after the write is applied and visible —
// read-your-writes); TRAINA and ADDA only enqueue, and FLUSH is the
// barrier that makes prior async writes visible. Async failures are
// attributed per session: a connection's FLUSH reports only its own
// failed TRAINA/ADDA, never another session's.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	root "hazy"
)

// Options configures a Server.
type Options struct {
	// DefaultView is the view unqualified verbs target before a
	// session issues USE. It may name a view that clients declare
	// later over SQL.
	DefaultView string
}

// Server serves a catalog: every table, view, and attached engine of
// one database.
type Server struct {
	db   *root.DB
	opts Options

	// stmtMu serializes SQL statements and verbs on live views;
	// verbs on snapshot bindings never take it. It is the DB's own
	// statement lock — shared so a replica's log applier interleaves
	// whole records with whole statements.
	stmtMu *sync.Mutex

	// shared backs the exported Exec used by tests and benchmarks;
	// real connections each get their own session.
	shared *root.Session

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// New serves db. Engine mode is decided per view by the DB's engine
// registry, not by the server.
func New(db *root.DB, opts Options) *Server {
	s := &Server{db: db, opts: opts, stmtMu: db.StatementMu(), conns: map[net.Conn]struct{}{}}
	s.shared = s.newSession()
	return s
}

func (s *Server) newSession() *root.Session {
	sess := s.db.NewSession()
	if s.opts.DefaultView != "" {
		sess.SetDefaultView(s.opts.DefaultView)
	}
	return sess
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		if !s.track(conn) {
			conn.Close()
			return net.ErrClosed
		}
		go s.session(conn)
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Close terminates every live session. Callers close the listener
// first (so no new sessions arrive), then Close, then close the DB
// (which drains the attached engines).
func (s *Server) Close() error {
	s.connMu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	s.connMu.Unlock()
	return nil
}

// maxLine caps one protocol line. The scanner buffer starts small and
// grows to it only for a connection that sends long lines.
const maxLine = 1 << 20

func (s *Server) session(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	sess := s.newSession()
	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, maxLine)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		quit, err := s.serveLine(sess, sc.Text(), w)
		if err == nil {
			err = w.Flush()
		}
		if err != nil || quit {
			// err means the response line can no longer be completed
			// coherently (an I/O failure, or a SELECT that died after
			// rows were already on the wire); the only sound move in a
			// line-delimited protocol is to drop the connection.
			return
		}
	}
	if sc.Err() == bufio.ErrTooLong {
		refuseLine(conn, w)
	}
}

// refuseLine answers a line past maxLine before the connection drops.
// It then reads the rest of the line, for at most a second, so the
// close is a clean FIN behind the reply rather than a reset that can
// discard it.
func refuseLine(conn net.Conn, w *bufio.Writer) {
	if writeLine(w, "ERR statement longer than 1 MiB") != nil || w.Flush() != nil {
		return
	}
	conn.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck — best effort
	r := bufio.NewReader(conn)
	for {
		if _, err := r.ReadSlice('\n'); err != bufio.ErrBufferFull {
			return
		}
	}
}

// Exec runs one protocol line against the server's shared session and
// returns the response plus whether the session should end. It is
// exported so tests and benchmarks can drive the statement layer
// without a TCP transport; it is safe for concurrent use (verbs on
// snapshot bindings are lock-free, everything else serializes on the
// statement mutex).
func (s *Server) Exec(line string) (string, bool) {
	var b strings.Builder
	w := bufio.NewWriter(&b)
	quit, err := s.serveLine(s.shared, line, w)
	if err != nil {
		// No wire to desync here — surface the failure as an ERR line.
		return "ERR " + err.Error(), quit
	}
	w.Flush()
	return strings.TrimSuffix(b.String(), "\n"), quit
}

// writeLine writes one complete response line.
func writeLine(w *bufio.Writer, line string) error {
	if _, err := w.WriteString(line); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// serveLine answers one protocol line, writing the full response
// (trailing newline included) to w. The returned error means the
// connection is no longer coherent and must be closed; ordinary
// statement failures are written as ERR lines and return nil.
func (s *Server) serveLine(sess *root.Session, line string, w *bufio.Writer) (quit bool, err error) {
	trimmed := strings.TrimSpace(line)
	fields := strings.Fields(trimmed)
	if len(fields) == 0 {
		return false, writeLine(w, "ERR empty command")
	}
	cmd := strings.ToUpper(fields[0])
	args := fields[1:]
	switch cmd {
	case "QUIT":
		return true, writeLine(w, "BYE")
	case "SQL":
		stmt := strings.TrimSpace(trimmed[len(fields[0]):])
		if stmt == "" {
			return false, writeLine(w, "ERR usage: SQL <statement>")
		}
		return false, s.streamSQL(sess, stmt, w)
	case "USE":
		if len(args) != 1 {
			return false, writeLine(w, "ERR usage: USE <view>")
		}
		if err := sess.Use(args[0]); err != nil {
			return false, writeLine(w, "ERR "+err.Error())
		}
		return false, writeLine(w, "OK")
	case "PROMOTE":
		// Deliberately outside the statement mutex: stopping the
		// applier waits for its in-flight record, which needs it.
		if err := s.db.Promote(); err != nil {
			return false, writeLine(w, "ERR "+err.Error())
		}
		return false, writeLine(w, "OK")
	}
	return false, writeLine(w, s.execVerb(sess, cmd, args))
}

// streamSQL executes one statement and writes the one-line JSON
// response incrementally: each SELECT row is encoded and written as
// the plan produces it, so a large result flows to the client row at
// a time instead of being materialized. The byte stream is identical
// to a json.Marshal of the equivalent Result.
//
// The statement mutex covers planning and every non-SELECT statement
// (SQL can touch the catalog and live views; inserts targeting
// engined views still route through their engines inside), but NOT
// the streaming: snapshot-bound and table plans read immutable or
// internally locked state, so a client that reads its result slowly
// cannot wedge other connections' statements behind the mutex. Plans
// over live views do need the serialization, so they
// are drained under the mutex — the old materializing behavior —
// and streamed from memory after it is released.
func (s *Server) streamSQL(sess *root.Session, stmt string, w *bufio.Writer) error {
	// PROMOTE must not run under the statement mutex: stopping the
	// replica's applier waits for its in-flight record, and that record
	// holds this very mutex.
	lock := !isPromote(stmt)
	if lock {
		s.stmtMu.Lock()
	}
	rows, err := sess.Query(stmt)
	if err == nil && rows.Live() {
		if merr := rows.Materialize(); merr != nil {
			rows.Close()
			rows, err = nil, merr
		}
	}
	if lock {
		s.stmtMu.Unlock()
	}
	if err != nil {
		return writeLine(w, "ERR "+err.Error())
	}
	defer rows.Close()
	if msg := rows.Msg(); msg != "" {
		data, merr := json.Marshal(root.Result{Msg: msg})
		if merr != nil {
			return writeLine(w, "ERR "+merr.Error())
		}
		return writeLine(w, string(data))
	}
	// Pull the first row before committing any bytes: errors that
	// surface on the first pull — a point read of a missing id — must
	// still become ERR responses, not half-written JSON.
	row, ok, err := rows.Next()
	if err != nil {
		return writeLine(w, "ERR "+err.Error())
	}
	cols, merr := json.Marshal(rows.Cols())
	if merr != nil {
		return writeLine(w, "ERR "+merr.Error())
	}
	if _, err := w.WriteString(`{"cols":` + string(cols)); err != nil {
		return err
	}
	for n := 0; ok; n++ {
		sep := `,`
		if n == 0 {
			sep = `,"rows":[`
		}
		data, merr := json.Marshal(row)
		if merr != nil {
			return merr
		}
		if _, err := w.WriteString(sep + string(data)); err != nil {
			return err
		}
		if row, ok, err = rows.Next(); err != nil {
			// Mid-stream failure with rows already on the wire.
			return err
		}
		if !ok {
			if _, err := w.WriteString(`]`); err != nil {
				return err
			}
		}
	}
	return writeLine(w, `}`)
}

// isPromote reports whether a SQL statement line is PROMOTE (modulo
// spacing and a trailing semicolon).
func isPromote(stmt string) bool {
	return strings.EqualFold(strings.TrimRight(strings.TrimSpace(stmt), "; \t"), "PROMOTE")
}

// splitQualifier resolves an optional leading view qualifier: ok
// when the argument count matches the qualified arity, or for
// variadic verbs when the first argument is not an integer id.
func splitQualifier(args []string, unqualified, qualified int, variadic bool) (view string, rest []string, ok bool) {
	n := len(args)
	switch {
	case variadic:
		if n >= unqualified && isInt(args[0]) {
			return "", args, true
		}
		if n >= qualified && !isInt(args[0]) {
			return args[0], args[1:], true
		}
	case n == unqualified:
		return "", args, true
	case n == qualified:
		return args[0], args[1:], true
	}
	return "", nil, false
}

func isInt(s string) bool {
	_, err := strconv.ParseInt(s, 10, 64)
	return err == nil
}

// execVerb answers one legacy verb. The view is bound once per
// statement: a snapshot binding (an engined view, or any view a
// replica republishes) runs lock-free, its reads answer from the
// bound snapshot and its writes stay on the bound engine (a
// concurrent detach yields an explicit engine-closed error, never an
// unsynchronized fall-through to the live view); a live binding takes
// the statement mutex and re-binds under it, so a concurrent attach
// is either fully observed or fully not.
func (s *Server) execVerb(sess *root.Session, cmd string, args []string) string {
	var view string
	var rest []string
	var ok bool
	switch cmd {
	case "LABEL", "UNCERTAIN":
		view, rest, ok = splitQualifier(args, 1, 2, false)
		if !ok {
			return fmt.Sprintf("ERR usage: %s [view] <arg>", cmd)
		}
	case "COUNT", "MEMBERS", "FLUSH", "STATS":
		view, rest, ok = splitQualifier(args, 0, 1, false)
		if !ok {
			return fmt.Sprintf("ERR usage: %s [view]", cmd)
		}
	case "TRAIN", "TRAINA":
		view, rest, ok = splitQualifier(args, 2, 3, false)
		if !ok {
			return fmt.Sprintf("ERR usage: %s [view] <id> <+1|-1>", cmd)
		}
	case "ADD", "ADDA":
		if len(args) < 2 {
			return fmt.Sprintf("ERR usage: %s [view] <id> <text>", cmd)
		}
		view, rest, ok = splitQualifier(args, 2, 3, true)
		if !ok {
			return fmt.Sprintf("ERR usage: %s [view] <id> <text>", cmd)
		}
	case "CLASSIFY":
		// CLASSIFY takes free text, which arity cannot disambiguate
		// from a view name — it always targets the session's default
		// view (USE to retarget), so legacy clients' text is never
		// silently reinterpreted as a qualifier.
		if len(args) == 0 {
			return "ERR usage: CLASSIFY <text>"
		}
		view, rest = "", args
	default:
		return "ERR unknown command " + cmd
	}

	// STATS replica reports the replication collectors (lag, apply
	// rate, reconnects) — unless a view is actually named "replica".
	if cmd == "STATS" && view == "replica" {
		if _, err := s.db.View("replica"); err != nil {
			return s.replicaStats()
		}
	}

	bv, err := sess.Bind(view)
	if err == nil && !bv.Live() {
		return s.applyVerb(bv, cmd, rest)
	}
	// Live bindings (or unresolvable names — the error paths)
	// serialize behind the statement mutex; re-bind under it.
	s.stmtMu.Lock()
	defer s.stmtMu.Unlock()
	if bv, err = sess.Bind(view); err != nil {
		return "ERR " + err.Error()
	}
	return s.applyVerb(bv, cmd, rest)
}

func (s *Server) applyVerb(bv *root.BoundView, cmd string, args []string) string {
	switch cmd {
	case "LABEL":
		id, errmsg := parseID(args, "LABEL <id>")
		if errmsg != "" {
			return "ERR " + errmsg
		}
		label, err := bv.Label(id)
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("%+d", label)
	case "COUNT":
		n, err := bv.CountMembers()
		if err != nil {
			return "ERR " + err.Error()
		}
		return strconv.Itoa(n)
	case "MEMBERS":
		ids, err := bv.Members()
		if err != nil {
			return "ERR " + err.Error()
		}
		return joinIDs(ids)
	case "TRAIN", "TRAINA":
		id, label, errmsg := parseTrain(args)
		if errmsg != "" {
			return "ERR " + errmsg
		}
		if label != 1 && label != -1 {
			return fmt.Sprintf("ERR label must be ±1, got %d", label)
		}
		var err error
		if cmd == "TRAINA" {
			if err = bv.TrainAsync(id, label); err == nil {
				return "QUEUED"
			}
		} else if err = bv.Train(id, label); err == nil {
			return "OK"
		}
		return "ERR " + err.Error()
	case "ADD", "ADDA":
		id, text, errmsg := parseAdd(args)
		if errmsg != "" {
			return "ERR " + errmsg
		}
		var err error
		if cmd == "ADDA" {
			if err = bv.AddAsync(id, text); err == nil {
				return "QUEUED"
			}
		} else if err = bv.Add(id, text); err == nil {
			return "OK"
		}
		return "ERR " + err.Error()
	case "FLUSH":
		if err := bv.Flush(); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "CLASSIFY":
		label, err := bv.Classify(strings.Join(args, " "))
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("%+d", label)
	case "UNCERTAIN":
		k, errmsg := parseK(args)
		if errmsg != "" {
			return "ERR " + errmsg
		}
		ids, err := bv.MostUncertain(k)
		if err != nil {
			return "ERR " + err.Error()
		}
		return joinIDs(ids)
	case "STATS":
		vs, engineStats := bv.ViewStats()
		line := fmt.Sprintf("updates=%d reorgs=%d band=%d", vs.Updates, vs.Reorgs, vs.BandTuples)
		if engineStats != "" {
			line += " " + engineStats
		}
		return line
	}
	return "ERR unknown command " + cmd
}

// replicaStats renders the hazy_replica_* collectors as one
// key=value line — the STATS replica verb.
func (s *Server) replicaStats() string {
	var parts []string
	for _, m := range s.db.Metrics().Snapshot() {
		if name, ok := strings.CutPrefix(m.Name, "hazy_replica_"); ok {
			parts = append(parts, fmt.Sprintf("%s=%d", name, m.Value))
		}
	}
	return strings.Join(parts, " ")
}

// parseID parses the single-id argument shape of LABEL.
func parseID(args []string, usage string) (int64, string) {
	if len(args) != 1 {
		return 0, "usage: " + usage
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return 0, "bad id"
	}
	return id, ""
}

// parseTrain parses the shared argument shape of TRAIN/TRAINA.
func parseTrain(args []string) (id int64, label int, errmsg string) {
	if len(args) != 2 {
		return 0, 0, "usage: TRAIN [view] <id> <+1|-1>"
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return 0, 0, "bad id"
	}
	label, err = strconv.Atoi(args[1])
	if err != nil {
		return 0, 0, "bad label"
	}
	return id, label, ""
}

// parseAdd parses the shared argument shape of ADD/ADDA.
func parseAdd(args []string) (id int64, text string, errmsg string) {
	if len(args) < 2 {
		return 0, "", "usage: ADD [view] <id> <text>"
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return 0, "", "bad id"
	}
	return id, strings.Join(args[1:], " "), ""
}

func parseK(args []string) (int, string) {
	if len(args) != 1 {
		return 0, "usage: UNCERTAIN [view] <k>"
	}
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 1 {
		return 0, "bad k"
	}
	return k, ""
}

func joinIDs(ids []int64) string {
	if len(ids) == 0 {
		return "(none)"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(id, 10)
	}
	return strings.Join(parts, " ")
}

// Client is a minimal blocking client for the protocol.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a hazyd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Do sends one command line and returns the response line. An "ERR"
// response is returned as a Go error.
func (c *Client) Do(cmd string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\n")
	if strings.HasPrefix(line, "ERR ") {
		return "", fmt.Errorf("server: %s", line[4:])
	}
	return line, nil
}

// Exec runs one SQL statement through the SQL wire command and
// decodes the result, making Client an executor interchangeable with
// an embedded hazy.Session (the hazyql -connect mode). The statement
// is flattened to one line — the wire protocol is line-delimited — so
// line comments are stripped first (they would otherwise swallow
// everything after them once the newlines are gone).
func (c *Client) Exec(stmt string) (*root.Result, error) {
	flat, err := flattenSQL(stmt)
	if err != nil {
		return nil, err
	}
	line, err := c.Do("SQL " + flat)
	if err != nil {
		return nil, err
	}
	var res root.Result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return nil, fmt.Errorf("server: bad SQL response %q: %w", line, err)
	}
	return &res, nil
}

// flattenSQL rewrites a possibly multi-line statement as a single
// line: "--" comments outside string literals are dropped to their
// end of line, and newlines become spaces. Quoted text ('it”s') is
// preserved byte for byte — which is why a newline INSIDE a literal
// is an error: it cannot be sent over the line-delimited protocol
// without either corrupting the data or desyncing the framing.
func flattenSQL(stmt string) (string, error) {
	var b strings.Builder
	inQuote, inComment := false, false
	for i := 0; i < len(stmt); i++ {
		ch := stmt[i]
		switch {
		case inComment:
			if ch == '\n' {
				inComment = false
				b.WriteByte(' ')
			}
		case inQuote:
			if ch == '\n' || ch == '\r' {
				return "", fmt.Errorf("server: string literal with a newline cannot be sent over the line-delimited protocol")
			}
			b.WriteByte(ch)
			if ch == '\'' {
				inQuote = false
			}
		case ch == '\'':
			inQuote = true
			b.WriteByte(ch)
		case ch == '-' && i+1 < len(stmt) && stmt[i+1] == '-':
			inComment = true
			i++
		case ch == '\n' || ch == '\r':
			b.WriteByte(' ')
		default:
			b.WriteByte(ch)
		}
	}
	return strings.TrimSpace(b.String()), nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

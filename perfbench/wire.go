package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"time"

	"repro/internal/events"
	"repro/internal/protocol"
	"repro/internal/server"
)

// Client operations travel as the request lines a dvms-serve client sends.
// The benchmark decodes each line with protocol.ParseRequest, calls the
// session the way dvms-serve's handler does, and encodes the response with
// protocol.WriteResponse into memory: the server's whole per-line path
// without a socket.

func eventLine(ev mouse) []byte {
	return mustLine(protocol.Request{Op: "event", Type: ev.typ, T: ev.t, X: ev.x, Y: ev.y})
}

func undoLine() []byte { return mustLine(protocol.Request{Op: "undo"}) }

func resumeLine(token string) []byte { return mustLine(protocol.Request{Op: "resume", Token: token}) }

func detachLine() []byte { return mustLine(protocol.Request{Op: "detach"}) }

func mustLine(req protocol.Request) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request of plain fields always encodes
	}
	return b
}

// wireTimes splits one served line into codec and call time.
type wireTimes struct {
	start, decoded, called, end time.Time
}

// wire serves request lines against one server, reusing its response
// buffer.
type wire struct {
	srv *server.Server
	out bytes.Buffer
}

// serve handles one line for sess, returning the response, the session the
// connection continues with (resume swaps it), and the phase timestamps.
func (w *wire) serve(sess *server.Session, line []byte) (protocol.Response, *server.Session, wireTimes, error) {
	var tm wireTimes
	tm.start = time.Now()
	req, err := protocol.ParseRequest(line)
	tm.decoded = time.Now()
	var resp protocol.Response
	next := sess
	if err != nil {
		resp = protocol.Response{Error: err.Error()}
	} else {
		resp, next = w.call(sess, req)
	}
	tm.called = time.Now()
	w.out.Reset()
	werr := protocol.WriteResponse(&w.out, resp)
	tm.end = time.Now()
	if werr != nil {
		return resp, next, tm, werr
	}
	if !resp.OK {
		return resp, next, tm, errors.New(resp.Error)
	}
	return resp, next, tm, nil
}

// call mirrors dvms-serve's handler for the ops the benchmark sends.
func (w *wire) call(sess *server.Session, req protocol.Request) (protocol.Response, *server.Session) {
	switch req.Op {
	case "event":
		te, err := sess.Feed(events.Mouse(req.Type, req.T, req.X, req.Y))
		if err != nil {
			return protocol.Response{Error: err.Error()}, sess
		}
		return protocol.Response{
			OK: true, Session: sess.ID(),
			Interaction: te.Interaction, Began: te.Began,
			Committed: te.Committed, Aborted: te.Aborted,
			RowsEmitted: te.RowsEmitted, Version: te.Version,
		}, sess
	case "undo":
		if err := sess.Undo(); err != nil {
			return protocol.Response{Error: err.Error()}, sess
		}
		return protocol.Response{OK: true, Session: sess.ID()}, sess
	case "resume":
		next, err := w.srv.Resume(req.Token)
		if err != nil {
			return protocol.Response{Error: err.Error()}, sess
		}
		return protocol.Response{OK: true, Session: next.ID(), Token: next.Token()}, next
	case "detach":
		sess.Detach()
		return protocol.Response{OK: true, Session: sess.ID()}, sess
	default:
		return protocol.Response{Error: "unsupported op " + req.Op}, sess
	}
}

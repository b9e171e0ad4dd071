package restapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rheem"
	"rheem/internal/core"
	"rheem/latin"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	if err := ctx.DFS.WriteLines("words.txt", []string{"a b a", "c a"}); err != nil {
		t.Fatal(err)
	}
	return New(ctx, testUDFs())
}

// testUDFs is the WordCount UDF set shared by every server-construction
// helper in this package.
func testUDFs() *latin.Registry {
	udfs := latin.NewRegistry()
	udfs.RegisterFlatMap("split", func(q any) []any {
		fields := strings.Fields(q.(string))
		out := make([]any, len(fields))
		for i, w := range fields {
			out[i] = core.KV{Key: w, Value: int64(1)}
		}
		return out
	})
	udfs.RegisterKey("wordOf", func(q any) any { return q.(core.KV).Key })
	udfs.RegisterReduce("sum", func(a, b any) any {
		ka, kb := a.(core.KV), b.(core.KV)
		return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
	})
	return udfs
}

func post(t *testing.T, s *Server, path, script string) *httptest.ResponseRecorder {
	t.Helper()
	body := `{"script": ` + mustJSON(t, script) + `}`
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

const wordCountScript = `
	lines = load 'dfs://words.txt';
	words = flatmap lines using split;
	counts = reduceby words key wordOf using sum;
	collect counts;
`

func TestRunEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec := post(t, s, "/v1/run", wordCountScript)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Platforms) == 0 {
		t.Fatal("no platforms reported")
	}
	counts := map[string]int64{}
	for _, raw := range resp.Sinks["counts"] {
		q, err := core.DecodeQuantum(raw)
		if err != nil {
			t.Fatal(err)
		}
		kv := q.(core.KV)
		counts[kv.Key.(string)] = kv.Value.(int64)
	}
	if counts["a"] != 3 || counts["b"] != 1 || counts["c"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec := post(t, s, "/v1/explain", wordCountScript)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Plan, "RheemPlan") || !strings.Contains(resp.ExecutionPlan, "ExecutionPlan") {
		t.Fatalf("explain payload incomplete: %+v", resp)
	}
}

func TestPlatformsAndHealth(t *testing.T) {
	s := newTestServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/platforms", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "streams") {
		t.Fatalf("platforms: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d", rec.Code)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t)
	// Broken JSON.
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader("{"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("broken json: %d", rec.Code)
	}
	// Empty script.
	rec = post(t, s, "/v1/run", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty script: %d", rec.Code)
	}
	// Syntax error -> 422 with a message.
	rec = post(t, s, "/v1/run", "x = frobnicate y;")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad script: %d %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("no error payload: %s", rec.Body)
	}
}

func TestTruncation(t *testing.T) {
	s := newTestServer(t)
	s.MaxResultQuanta = 2
	rec := post(t, s, "/v1/run", wordCountScript)
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || len(resp.Sinks["counts"]) != 2 {
		t.Fatalf("truncation failed: %+v", resp)
	}
}

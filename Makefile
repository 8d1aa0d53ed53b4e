# Single source of truth for external linter version pins. CI installs
# with `go install <tool>@$(make -s staticcheck-version)` etc., so bumping
# a pin here bumps it everywhere. (The usual tools.go-in-go.mod pinning is
# off the table: the dev image is offline and the module must stay
# dependency-free, so these tools exist only in CI.)
STATICCHECK_VERSION := 2024.1.1
ERRCHECK_VERSION    := v1.7.0
GOVULNCHECK_VERSION := v1.1.4

LINT_BIN := bin/dualvdd-lint

.PHONY: all build test lint lint-extern vulncheck \
	staticcheck-version errcheck-version govulncheck-version

all: build test lint

build:
	go build ./...

test:
	go test ./...

$(LINT_BIN): FORCE
	go build -o $(LINT_BIN) ./cmd/dualvdd-lint

# The in-repo analyzer suite, fully offline, under its one driver (a
# multichecker over go list patterns). `go vet ./...` runs vet's own passes.
lint: $(LINT_BIN)
	./$(LINT_BIN) ./...

# External linters; needs network to install, so CI-only in practice.
lint-extern:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install github.com/kisielk/errcheck@$(ERRCHECK_VERSION)
	staticcheck ./...
	errcheck -ignoretests -exclude .errcheck-excludes ./...

# Known-vulnerability scan; advisory (CI runs it continue-on-error).
vulncheck:
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	govulncheck ./...

staticcheck-version:
	@echo $(STATICCHECK_VERSION)
errcheck-version:
	@echo $(ERRCHECK_VERSION)
govulncheck-version:
	@echo $(GOVULNCHECK_VERSION)

FORCE:
